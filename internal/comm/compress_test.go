package comm

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
)

// TestCompressedAllReduceValuesAndBytes checks that an int8 codec both cuts
// gradient wire bytes >= 3.5x and injects bounded quantisation error into
// the reduced values, while all replicas stay bitwise identical.
func TestCompressedAllReduceValuesAndBytes(t *testing.T) {
	const n, elems = 4, 4096
	run := func(codec compress.Codec) (bytes int64, out [][]float32) {
		m, c := newWorld(n)
		out = make([][]float32, n)
		for r := 0; r < n; r++ {
			r := r
			out[r] = make([]float32, elems)
			for i := range out[r] {
				out[r][i] = float32(math.Sin(float64(i*(r+1)))) * 0.1
			}
			m.Eng.Go("rank", func(p *sim.Proc) {
				c.AllReduceSum(p, r, out[r], Compressed(codec, hw.TrafficGradient))
			})
		}
		if _, err := m.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Fabric.Counters.TotalWire(hw.TrafficGradient), out
	}

	rawBytes, exact := run(nil)
	int8Bytes, quant := run(compress.NewInt8(7))

	if ratio := float64(rawBytes) / float64(int8Bytes); ratio < 3.5 {
		t.Errorf("int8 gradient wire reduction %.2fx, want >= 3.5x (%d vs %d bytes)",
			ratio, rawBytes, int8Bytes)
	}
	// Quantisation error must be real but bounded: per element the error of
	// one rank's contribution is < its chunk scale, and n ranks sum.
	var maxErr float64
	anyDiff := false
	for i := range exact[0] {
		err := math.Abs(float64(quant[0][i] - exact[0][i]))
		if err > maxErr {
			maxErr = err
		}
		if err != 0 {
			anyDiff = true
		}
	}
	if !anyDiff {
		t.Error("int8 allreduce produced exact values; quantisation is not being applied")
	}
	// Each contribution spans about [-0.1, 0.1] so chunk scale <= 0.2/255;
	// n summed contributions bound the error by n*scale.
	if bound := float64(n) * 0.2 / 255 * 1.01; maxErr > bound {
		t.Errorf("int8 allreduce error %g exceeds bound %g", maxErr, bound)
	}
	for r := 1; r < n; r++ {
		for i := range quant[0] {
			if quant[r][i] != quant[0][i] {
				t.Fatalf("compressed replicas diverged at rank %d elem %d", r, i)
			}
		}
	}
}

// TestCompressedAllReduceDeterministic runs the same compressed reduction
// twice and requires bit-identical results (seeded stochastic rounding).
func TestCompressedAllReduceDeterministic(t *testing.T) {
	const n, elems = 4, 1024
	run := func() [][]float32 {
		m, c := newWorld(n)
		out := make([][]float32, n)
		for r := 0; r < n; r++ {
			r := r
			out[r] = make([]float32, elems)
			for i := range out[r] {
				out[r][i] = float32(r+1) / float32(i+3)
			}
			m.Eng.Go("rank", func(p *sim.Proc) {
				c.AllReduceSum(p, r, out[r], Compressed(compress.NewInt8(99), hw.TrafficGradient))
			})
		}
		if _, err := m.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for r := range a {
		for i := range a[r] {
			if math.Float32bits(a[r][i]) != math.Float32bits(b[r][i]) {
				t.Fatalf("same-seed compressed allreduce not bit-identical at rank %d elem %d", r, i)
			}
		}
	}
}

// TestAllToAllDeliversPayloadsUnchanged: a codec on an all-to-all prices the
// wire (fp16: two bytes per element) but delivers every segment, self and
// cross-GPU, exactly as posted.
func TestAllToAllDeliversPayloadsUnchanged(t *testing.T) {
	const n = 2
	m, c := newWorld(n)
	got := make([][][]float32, n)
	vLossy := float32(1.000244140625) // 1 + 2^-12: fp16 would round it
	for r := 0; r < n; r++ {
		r := r
		m.Eng.Go("rank", func(p *sim.Proc) {
			out := make([][]float32, n)
			for q := 0; q < n; q++ {
				out[q] = []float32{float32(r), vLossy}
			}
			got[r] = AllToAll(c, p, r, out, Compressed(compress.FP16{}, hw.TrafficFeature))
		})
	}
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		for q := 0; q < n; q++ {
			if seg := got[r][q]; len(seg) != 2 || seg[0] != float32(q) || seg[1] != vLossy {
				t.Fatalf("rank %d from %d received %v, want [%d %v]", r, q, seg, q, vLossy)
			}
		}
	}
	// Wire bytes: each rank sends one 2-element fp16 segment to its peer.
	if gotB := m.Fabric.Counters.NVLinkBytes[hw.TrafficFeature]; gotB != 2*2*2 {
		t.Errorf("fp16 feature bytes %d, want %d", gotB, 2*2*2)
	}
}

// TestCompressionStatsAndTrace checks the compressed-vs-raw accounting.
func TestCompressionStatsAndTrace(t *testing.T) {
	const n, elems = 2, 512
	m, c := newWorld(n)
	for r := 0; r < n; r++ {
		r := r
		data := make([]float32, elems)
		m.Eng.Go("rank", func(p *sim.Proc) {
			c.AllReduceSum(p, r, data, Compressed(compress.NewInt8(1), hw.TrafficGradient))
		})
	}
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := c.Compression()[hw.TrafficGradient]
	if st.Raw != int64(n)*4*elems {
		t.Errorf("raw bytes %d, want %d", st.Raw, n*4*elems)
	}
	wantWire := int64(n) * compress.NewInt8(1).WireBytes(elems)
	if st.Wire != wantWire {
		t.Errorf("wire bytes %d, want %d", st.Wire, wantWire)
	}
	if st.Wire >= st.Raw {
		t.Error("compression stats show no savings")
	}
}

// TestCompressedAllReduceUnderFaultInjection kills a rank mid-run and
// checks the survivors' compressed allreduce retries cleanly under the new
// membership view and still matches across the live replicas.
func TestCompressedAllReduceUnderFaultInjection(t *testing.T) {
	const n, elems = 4, 2048
	m, c := newWorld(n)
	view := fault.NewView(n)
	c.SetView(view)
	const victim = 2
	opts := Compressed(compress.NewInt8(5), hw.TrafficGradient)

	results := make([][]float32, n)
	for r := 0; r < n; r++ {
		r := r
		m.Eng.Go("rank", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				if r == victim && round == 1 {
					return // crashed before its second round
				}
				for {
					data := make([]float32, elems)
					for i := range data {
						data[i] = float32(r+1) * 1e-3 * float32(i%17)
					}
					aborted := func() (ab bool) {
						defer func() {
							if rec := recover(); rec != nil {
								if _, ok := rec.(fault.Aborted); !ok {
									panic(rec)
								}
								ab = true
							}
						}()
						c.Begin(r)
						c.AllReduceSum(p, r, data, opts)
						return false
					}()
					if !aborted {
						results[r] = data
						break
					}
					p.Sleep(1e-6) // back off and retry under the new view
				}
			}
		})
	}
	m.Eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(1e-5)
		view.Kill(victim)
	})
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	var ref []float32
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		if results[r] == nil {
			t.Fatalf("survivor %d never completed", r)
		}
		if ref == nil {
			ref = results[r]
			continue
		}
		for i := range ref {
			if results[r][i] != ref[i] {
				t.Fatalf("survivor %d diverged at %d after fault", r, i)
			}
		}
	}
}
