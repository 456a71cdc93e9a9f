package comm

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func newWorld(n int) (*hw.Machine, *Communicator) {
	m := hw.NewMachine(n, hw.V100(), hw.XeonE5())
	return m, New(m)
}

func TestAllToAllDeliversCorrectly(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		m, c := newWorld(n)
		got := make([][][]int32, n)
		for r := 0; r < n; r++ {
			r := r
			m.Eng.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				out := make([][]int32, n)
				for q := 0; q < n; q++ {
					// rank r sends [r*100+q] to q.
					out[q] = []int32{int32(r*100 + q)}
				}
				got[r] = AllToAll(c, p, r, out, Raw(4, hw.TrafficSample))
			})
		}
		if _, err := m.Eng.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for r := 0; r < n; r++ {
			for q := 0; q < n; q++ {
				want := int32(q*100 + r)
				if len(got[r][q]) != 1 || got[r][q][0] != want {
					t.Fatalf("n=%d: rank %d from %d got %v, want [%d]", n, r, q, got[r][q], want)
				}
			}
		}
	}
}

func TestAllToAllTimingScalesWithBytes(t *testing.T) {
	run := func(elems int) sim.Time {
		m, c := newWorld(4)
		for r := 0; r < 4; r++ {
			r := r
			m.Eng.Go("rank", func(p *sim.Proc) {
				out := make([][]int32, 4)
				for q := range out {
					if q != r {
						out[q] = make([]int32, elems)
					}
				}
				AllToAll(c, p, r, out, Raw(4, hw.TrafficFeature))
			})
		}
		end, err := m.Eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	small := run(1000)
	big := run(1000000)
	if big < 10*small {
		t.Errorf("1000x payload only %gx slower (%g vs %g)", big/small, big, small)
	}
}

func TestAllToAllAccountsNVLinkBytes(t *testing.T) {
	m, c := newWorld(2)
	for r := 0; r < 2; r++ {
		r := r
		m.Eng.Go("rank", func(p *sim.Proc) {
			out := make([][]int32, 2)
			out[1-r] = make([]int32, 256)
			AllToAll(c, p, r, out, Raw(4, hw.TrafficSample))
		})
	}
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Fabric.Counters.NVLinkBytes[hw.TrafficSample]; got != 2*256*4 {
		t.Errorf("sample bytes %d, want %d", got, 2*256*4)
	}
	if m.Fabric.Counters.PCIeBytes[hw.TrafficSample] != 0 {
		t.Error("all-to-all touched PCIe")
	}
}

func TestAllReduceSumExact(t *testing.T) {
	const n = 4
	m, c := newWorld(n)
	bufs := make([][]float32, n)
	for r := 0; r < n; r++ {
		r := r
		bufs[r] = []float32{float32(r + 1), float32(10 * (r + 1))}
		m.Eng.Go("rank", func(p *sim.Proc) {
			c.AllReduceSum(p, r, bufs[r], Raw(4, hw.TrafficGradient))
		})
	}
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if bufs[r][0] != 10 || bufs[r][1] != 100 {
			t.Fatalf("rank %d reduced to %v, want [10 100]", r, bufs[r])
		}
	}
}

func TestAllReduceBitwiseIdenticalAcrossRanks(t *testing.T) {
	// Float addition is order-sensitive; BSP requires all replicas to end
	// identical, so the reduction order must be fixed.
	const n = 8
	m, c := newWorld(n)
	bufs := make([][]float32, n)
	for r := 0; r < n; r++ {
		r := r
		bufs[r] = make([]float32, 100)
		for i := range bufs[r] {
			bufs[r][i] = float32(r) * 0.1 / float32(i+1)
		}
		m.Eng.Go("rank", func(p *sim.Proc) {
			c.AllReduceSum(p, r, bufs[r], Raw(4, hw.TrafficGradient))
		})
	}
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		for i := range bufs[0] {
			if bufs[r][i] != bufs[0][i] {
				t.Fatalf("rank %d diverged at %d", r, i)
			}
		}
	}
}

func TestAllGather(t *testing.T) {
	const n = 4
	m, c := newWorld(n)
	got := make([][][]int64, n)
	for r := 0; r < n; r++ {
		r := r
		m.Eng.Go("rank", func(p *sim.Proc) {
			got[r] = AllGather(c, p, r, []int64{int64(r)}, nil, Raw(8, hw.TrafficOther))
		})
	}
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		for q := 0; q < n; q++ {
			if len(got[r][q]) != 1 || got[r][q][0] != int64(q) {
				t.Fatalf("rank %d slot %d = %v", r, q, got[r][q])
			}
		}
	}
}

func TestSequentialCollectivesOnOneCommunicator(t *testing.T) {
	// Multiple collectives in program order must not cross-talk.
	const n = 4
	m, c := newWorld(n)
	results := make([][]float32, n)
	for r := 0; r < n; r++ {
		r := r
		m.Eng.Go("rank", func(p *sim.Proc) {
			for round := 0; round < 5; round++ {
				buf := []float32{float32(r + round)}
				c.AllReduceSum(p, r, buf, Raw(4, hw.TrafficGradient))
				results[r] = append(results[r], buf[0])
			}
		})
	}
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		for round := 0; round < 5; round++ {
			want := float32(0+1+2+3) + float32(n*round)
			if results[r][round] != want {
				t.Fatalf("rank %d round %d = %v, want %v", r, round, results[r][round], want)
			}
		}
	}
}

func TestSingleGPUCollectivesAreLocal(t *testing.T) {
	m, c := newWorld(1)
	var reduced []float32
	m.Eng.Go("rank", func(p *sim.Proc) {
		out := [][]int32{{42}}
		in := AllToAll(c, p, 0, out, Raw(4, hw.TrafficSample))
		if in[0][0] != 42 {
			t.Error("self all-to-all broken")
		}
		reduced = []float32{7}
		c.AllReduceSum(p, 0, reduced, Raw(4, hw.TrafficGradient))
	})
	end, err := m.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Errorf("single-GPU collectives consumed virtual time %g", end)
	}
	for class := hw.TrafficSample; class <= hw.TrafficOther; class++ {
		if w := m.Fabric.Counters.TotalWire(class); w != 0 {
			t.Errorf("single-GPU collectives moved %d %v wire bytes", w, class)
		}
	}
}
