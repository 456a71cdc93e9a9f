package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(123)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
	// Split derivation is reproducible from the same parent seed.
	if New(123).Split().Uint64() != New(123).Split().Uint64() {
		t.Fatal("split not reproducible")
	}
}

func TestShuffleCoverage(t *testing.T) {
	// Every permutation of 3 elements should appear under shuffling.
	r := New(17)
	seen := map[[3]int]int{}
	for i := 0; i < 6000; i++ {
		s := []int{0, 1, 2}
		r.ShuffleInts(s)
		seen[[3]int{s[0], s[1], s[2]}]++
	}
	if len(seen) != 6 {
		t.Fatalf("expected 6 permutations, saw %d", len(seen))
	}
	for p, c := range seen {
		if c < 700 {
			t.Errorf("permutation %v underrepresented: %d", p, c)
		}
	}
}

func TestExpPositiveAndMean(t *testing.T) {
	r := New(21)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(2.0)
		if v < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

// refUint64n is Uint64n as it stood before the lazy threshold: the modulus
// computed on every call, the widening multiply done by hand.
func refUint64n(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		hi, lo := refMul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

func refMul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// TestUint64nMatchesReference: the lazy threshold accepts the same draws as
// the eager one — equal values and an equal generator afterwards. The moduli
// near 2^63 and above reject close to half of all draws, so the redraw loop
// is exercised, not only the fast exit.
func TestUint64nMatchesReference(t *testing.T) {
	moduli := []uint64{1, 2, 1 << 5, 1 << 32, 1 << 63, 3, 15, 1000003,
		1<<32 - 1, 1<<32 + 1, 1<<63 - 1, 1<<63 + 1, 3 << 62, 1<<64 - 3, 1<<64 - 2, 1<<64 - 1}
	for _, n := range moduli {
		got, want := New(n^0xfeed), New(n^0xfeed)
		for i := 0; i < 100_000; i++ {
			if g, w := got.Uint64n(n), refUint64n(want, n); g != w {
				t.Fatalf("n=%d draw %d: %d, reference %d", n, i, g, w)
			}
		}
		if got.s != want.s {
			t.Fatalf("n=%d: generator state diverged from the reference", n)
		}
	}
}

var sinkUint64 uint64

// BenchmarkUint64n draws below odd bounds (never a power of two), the case
// the sampler's Floyd kernel hits on almost every step.
func BenchmarkUint64n(b *testing.B) {
	for _, bc := range []struct {
		name string
		fn   func(*RNG, uint64) uint64
	}{{"lazy", (*RNG).Uint64n}, {"ref", refUint64n}} {
		b.Run(bc.name, func(b *testing.B) {
			r := New(1)
			var acc uint64
			for i := 0; i < b.N; i++ {
				acc += bc.fn(r, uint64(i&63)*2+3)
			}
			sinkUint64 = acc
		})
	}
}
