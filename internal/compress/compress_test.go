package compress

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// randVec fills a vector with mixed-scale gaussian values, the shape of a
// real gradient (mostly small, some outliers).
func randVec(r *rng.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		x := r.NormFloat64() * 0.1
		if r.Float64() < 0.01 {
			x *= 50 // occasional outlier
		}
		v[i] = float32(x)
	}
	return v
}

func TestFP32Lossless(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{0, 1, 7, 256, 1000} {
		v := randVec(r, n)
		got := Roundtrip(FP32{}, v)
		for i := range v {
			if math.Float32bits(got[i]) != math.Float32bits(v[i]) {
				t.Fatalf("n=%d idx %d: fp32 not bit-lossless: %x != %x",
					n, i, math.Float32bits(got[i]), math.Float32bits(v[i]))
			}
		}
		if WireBytes(FP32{}, n) != 4*int64(n) {
			t.Fatalf("fp32 wire bytes: got %d want %d", WireBytes(FP32{}, n), 4*n)
		}
	}
}

func TestFP16ErrorBound(t *testing.T) {
	r := rng.New(2)
	v := randVec(r, 4096)
	got := Roundtrip(FP16{}, v)
	for i := range v {
		x := float64(v[i])
		// Round-to-nearest binary16 has relative error <= 2^-11 in the
		// normal range; subnormals have absolute error <= 2^-25.
		bound := math.Abs(x)/2048 + math.Exp2(-25)
		if err := math.Abs(float64(got[i]) - x); err > bound {
			t.Fatalf("idx %d: fp16 error %g exceeds bound %g (v=%g)", i, err, bound, x)
		}
	}
}

func TestFP16SpecialValues(t *testing.T) {
	cases := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 65504, -65504,
		1e9, -1e9, 6.1e-5, 5.9e-8, float32(math.Inf(1)), float32(math.Inf(-1))}
	got := Roundtrip(FP16{}, cases)
	if got[0] != 0 || got[2] != 1 || got[3] != -1 {
		t.Fatalf("fp16 exact values mangled: %v", got[:4])
	}
	if got[4] != 65504 || got[5] != -65504 {
		t.Fatalf("fp16 max-normal mangled: %v %v", got[4], got[5])
	}
	if !math.IsInf(float64(got[6]), 1) || !math.IsInf(float64(got[7]), -1) {
		t.Fatalf("fp16 overflow should saturate to inf: %v %v", got[6], got[7])
	}
	if !math.IsInf(float64(got[10]), 1) || !math.IsInf(float64(got[11]), -1) {
		t.Fatalf("fp16 inf not preserved: %v %v", got[10], got[11])
	}
}

func TestInt8ErrorWithinChunkBound(t *testing.T) {
	r := rng.New(3)
	c := NewInt8(42)
	for _, n := range []int{1, 255, 256, 257, 4096, 5000} {
		v := randVec(r, n)
		got := Roundtrip(c, v)
		for i := range v {
			ci := i / chunkSize
			lo, hi := ci*chunkSize, (ci+1)*chunkSize
			if hi > n {
				hi = n
			}
			mn, mx := v[lo], v[lo]
			for _, x := range v[lo:hi] {
				if x < mn {
					mn = x
				}
				if x > mx {
					mx = x
				}
			}
			scale := float64(mx-mn) / 255
			if err := math.Abs(float64(got[i] - v[i])); err > scale+1e-12 {
				t.Fatalf("n=%d idx %d: int8 error %g exceeds per-chunk bound %g", n, i, err, scale)
			}
		}
	}
}

func TestInt8ConstantChunkExact(t *testing.T) {
	v := make([]float32, 512)
	for i := range v {
		v[i] = 3.25
	}
	got := Roundtrip(NewInt8(7), v)
	for i := range v {
		if got[i] != 3.25 {
			t.Fatalf("constant chunk not exact at %d: %v", i, got[i])
		}
	}
}

func TestInt8Deterministic(t *testing.T) {
	r := rng.New(4)
	v := randVec(r, 2048)
	a := NewInt8(9).Encode(v)
	b := NewInt8(9).Encode(v)
	for i := range a.U8 {
		if a.U8[i] != b.U8[i] {
			t.Fatalf("same-seed int8 encodes differ at %d", i)
		}
	}
	c := NewInt8(10).Encode(v)
	same := true
	for i := range a.U8 {
		if a.U8[i] != c.U8[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical stochastic rounding (suspicious)")
	}
}

func TestInt8Unbiased(t *testing.T) {
	// Stochastic rounding should keep the chunk mean close to the input
	// mean; nearest rounding of a constant fractional offset would not.
	n := chunkSize * 64
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(i%2)*2 - 1 + 0.3 // alternating -0.7 / +1.3
	}
	got := Roundtrip(NewInt8(11), v)
	var sumIn, sumOut float64
	for i := range v {
		sumIn += float64(v[i])
		sumOut += float64(got[i])
	}
	meanErr := math.Abs(sumOut-sumIn) / float64(n)
	// scale = 2/255 ≈ 0.0078; an unbiased rounder's mean error shrinks
	// like scale/sqrt(n) ≈ 6e-5. Allow 10x slack.
	if meanErr > 6e-4 {
		t.Fatalf("int8 rounding looks biased: mean error %g", meanErr)
	}
}

func TestTopKPreservesLargestMagnitudes(t *testing.T) {
	r := rng.New(5)
	for _, ratio := range []float64{0.05, 0.1, 0.5} {
		c := NewTopK(ratio)
		n := 1000
		v := randVec(r, n)
		got := Roundtrip(c, v)
		k := c.k(n)
		// The k largest |v| must survive exactly; everything else is zero.
		type kv struct {
			abs float64
			idx int
		}
		all := make([]kv, n)
		for i, x := range v {
			all[i] = kv{math.Abs(float64(x)), i}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].abs != all[b].abs {
				return all[a].abs > all[b].abs
			}
			return all[a].idx < all[b].idx
		})
		keep := map[int]bool{}
		for _, e := range all[:k] {
			keep[e.idx] = true
		}
		kept := 0
		for i := range got {
			if keep[i] {
				if got[i] != v[i] {
					t.Fatalf("ratio %g: top-k entry %d not preserved exactly: %v != %v", ratio, i, got[i], v[i])
				}
				kept++
			} else if got[i] != 0 {
				t.Fatalf("ratio %g: non-top-k entry %d should be zero, got %v", ratio, i, got[i])
			}
		}
		if kept != k {
			t.Fatalf("ratio %g: kept %d entries, want %d", ratio, kept, k)
		}
	}
}

func TestTopKTieBreakDeterministic(t *testing.T) {
	v := []float32{1, -1, 1, 1, -1, 0.5, 1, -1}
	c := NewTopK(0.5) // k=4 of 8, but six entries tie at |1|
	a := c.Encode(v)
	b := c.Encode(v)
	if len(a.I32) != 4 {
		t.Fatalf("want 4 kept, got %d", len(a.I32))
	}
	for i := range a.I32 {
		if a.I32[i] != b.I32[i] {
			t.Fatal("topk tie-break not deterministic")
		}
		// Lower indices win ties: expect exactly indices 0,1,2,3.
		if a.I32[i] != int32(i) {
			t.Fatalf("tie-break should prefer lower indices, kept %v", a.I32)
		}
	}
}

func TestWireBytesRatios(t *testing.T) {
	n := 300000 // a realistic gradient length
	raw := WireBytes(nil, n)
	if raw != 4*int64(n) {
		t.Fatalf("nil codec wire bytes: %d", raw)
	}
	if got := WireBytes(FP16{}, n); got != raw/2 {
		t.Fatalf("fp16 wire bytes %d, want %d", got, raw/2)
	}
	int8b := WireBytes(NewInt8(0), n)
	if ratio := float64(raw) / float64(int8b); ratio < 3.5 {
		t.Fatalf("int8 wire reduction %.2fx below the 3.5x requirement", ratio)
	}
	tk := WireBytes(NewTopK(0.1), n)
	if ratio := float64(raw) / float64(tk); ratio < 4.9 {
		t.Fatalf("topk(0.1) wire reduction %.2fx, want ~5x", ratio)
	}
}

func TestParse(t *testing.T) {
	for _, spec := range []string{"", "none"} {
		c, err := Parse(spec, 1)
		if err != nil || c != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, c, err)
		}
	}
	for spec, name := range map[string]string{
		"fp32": "fp32", "fp16": "fp16", "int8": "int8",
		"topk": "topk0.1", "topk:0.25": "topk0.25", "FP16": "fp16",
	} {
		c, err := Parse(spec, 1)
		if err != nil || c == nil || c.Name() != name {
			t.Fatalf("Parse(%q) = %v, %v; want codec %q", spec, c, err, name)
		}
	}
	for _, bad := range []string{"zstd", "topk:0", "topk:1.5", "topk:x", "topk:nan", "topk:NaN", "topk:inf"} {
		if _, err := Parse(bad, 1); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

// FuzzParse feeds arbitrary -compress-grad / -compress-feat specs to Parse,
// seeded with the CLI doc values and the non-finite ratios it once accepted
// (topk:nan trained with a codec named topkNaN). A bad spec is an error,
// never a panic, and an accepted top-k ratio lies in (0, 1].
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"", "none", "fp32", "fp16", "int8", "topk", "topk:0.25", "topk:1", "topk:nan", "topk:inf", "topk:-0",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec, 1)
		if err != nil {
			return
		}
		if tk, ok := c.(TopK); ok && !(tk.Ratio > 0 && tk.Ratio <= 1) {
			t.Fatalf("Parse(%q) accepted top-k ratio %v", spec, tk.Ratio)
		}
	})
}

func TestIdentity(t *testing.T) {
	if !Identity(nil) || !Identity(FP32{}) {
		t.Fatal("nil and fp32 are identity codecs")
	}
	if Identity(FP16{}) || Identity(NewInt8(0)) || Identity(NewTopK(0.1)) {
		t.Fatal("lossy codecs must not be identity")
	}
}

func TestRoundtripAliasesIdentity(t *testing.T) {
	v := []float32{1, 2, 3}
	if got := Roundtrip(nil, v); &got[0] != &v[0] {
		t.Fatal("nil codec roundtrip should return input unchanged")
	}
	if got := Roundtrip(FP32{}, v); &got[0] != &v[0] {
		t.Fatal("fp32 roundtrip should return input unchanged")
	}
}
