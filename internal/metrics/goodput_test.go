package metrics

import (
	"testing"

	"repro/internal/rng"
)

func TestGoodputBasics(t *testing.T) {
	g := NewGoodput(0.1, 10e-3)
	// Window 0: two in-SLO, one late. Window 3: one in-SLO.
	g.Observe(0.01, 5e-3)
	g.Observe(0.05, 9e-3)
	g.Observe(0.09, 20e-3)
	g.Observe(0.35, 10e-3) // exactly at SLO counts as good
	if g.Total() != 4 {
		t.Fatalf("total %d != 4", g.Total())
	}
	if g.Good() != 3 {
		t.Fatalf("good %d != 3", g.Good())
	}
	if f := g.GoodFraction(); f != 0.75 {
		t.Fatalf("fraction %g != 0.75", f)
	}
	// Span covers windows 0..3 inclusive = 0.4s; rate = 3/0.4.
	if s := g.Span(); s != 0.4 {
		t.Fatalf("span %g != 0.4", s)
	}
	if r := g.Rate(); r != 3/0.4 {
		t.Fatalf("rate %g != %g", r, 3/0.4)
	}
}

func TestGoodputEmpty(t *testing.T) {
	g := NewGoodput(1, 1)
	if g.Rate() != 0 || g.Good() != 0 || g.Total() != 0 || g.Span() != 0 ||
		g.GoodFraction() != 0 {
		t.Fatal("empty counter not all-zero")
	}
	g.Merge(nil)
	g.Merge(NewGoodput(2, 3)) // empty other: config mismatch tolerated like Histogram
	if g.Total() != 0 {
		t.Fatal("merge of empty changed state")
	}
}

// TestGoodputMergeLossless mirrors the Histogram merge property: splitting an
// observation stream across k counters and merging reproduces exactly the
// counter that observed the whole stream.
func TestGoodputMergeLossless(t *testing.T) {
	r := rng.New(7)
	whole := NewGoodput(0.05, 8e-3)
	parts := []*Goodput{NewGoodput(0.05, 8e-3), NewGoodput(0.05, 8e-3), NewGoodput(0.05, 8e-3)}
	for i := 0; i < 5000; i++ {
		at := r.Float64() * 2
		lat := r.Float64() * 16e-3
		whole.Observe(at, lat)
		parts[i%3].Observe(at, lat)
	}
	merged := NewGoodput(0.05, 8e-3)
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Total() != whole.Total() || merged.Good() != whole.Good() {
		t.Fatalf("merge lost observations: %d/%d vs %d/%d",
			merged.Good(), merged.Total(), whole.Good(), whole.Total())
	}
	if merged.Span() != whole.Span() || merged.Rate() != whole.Rate() {
		t.Fatalf("merge changed derived stats: %v vs %v", merged, whole)
	}
}

// TestGoodputWindowEdges pins the bucketing rule at exact window
// boundaries: completion at k*window lands in window k (lower-inclusive,
// upper-exclusive buckets). Window width 0.25 is exactly representable
// in binary so k*window divides without float fuzz.
func TestGoodputWindowEdges(t *testing.T) {
	g := NewGoodput(0.25, 1e-2)
	g.Observe(0, 1e-3)    // edge of window 0
	g.Observe(0.25, 1e-3) // exactly on the 0/1 boundary → window 1
	g.Observe(0.5, 1e-3)  // exactly on the 1/2 boundary → window 2
	if g.Span() != 0.75 {
		t.Fatalf("span %g != 0.75: boundary observations mis-bucketed", g.Span())
	}
	// Windows 0, 1, 2 hold one in-SLO completion each: 1 good per 0.25 s.
	if r := g.Rate(); r != 4 {
		t.Fatalf("rate %g, want 4", r)
	}
	// Negative completion times clamp into window 0 rather than going to
	// a negative bucket index.
	g.Observe(-1, 1e-3)
	if g.Span() != 0.75 {
		t.Fatalf("span %g after negative-time observe, want unchanged 0.75", g.Span())
	}
}

func TestGoodputZeroWindowPanics(t *testing.T) {
	for _, tc := range []struct {
		name        string
		window, slo float64
	}{
		{"zero window", 0, 1e-2},
		{"negative window", -0.1, 1e-2},
		{"zero slo", 0.1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewGoodput did not panic", tc.name)
				}
			}()
			NewGoodput(tc.window, tc.slo)
		})
	}
}

// TestGoodputMergeMisaligned merges two counters whose observed window
// ranges neither overlap nor touch: the merged span must cover the hull
// including the interior windows nobody observed.
func TestGoodputMergeMisaligned(t *testing.T) {
	a := NewGoodput(0.25, 1e-2)
	a.Observe(0.1, 1e-3) // window 0
	a.Observe(0.3, 1e-3) // window 1
	b := NewGoodput(0.25, 1e-2)
	b.Observe(1.3, 1e-3)  // window 5
	b.Observe(1.8, 20e-3) // window 7, over SLO
	a.Merge(b)
	if a.Total() != 4 || a.Good() != 3 {
		t.Fatalf("merged counts good=%d total=%d, want 3/4", a.Good(), a.Total())
	}
	// Hull is windows 0..7 inclusive = 8 * 0.25 s.
	if a.Span() != 2 {
		t.Fatalf("merged span %g != 2", a.Span())
	}
	if r := a.Rate(); r != 1.5 {
		t.Fatalf("merged rate %g != 1.5 (3 good over 2 s)", r)
	}
	// Merging in the other direction (low range into high range) must
	// extend minW downward too.
	c := NewGoodput(0.25, 1e-2)
	c.Observe(1.3, 1e-3)
	d := NewGoodput(0.25, 1e-2)
	d.Observe(0.1, 1e-3)
	c.Merge(d)
	if c.Span() != 1.5 {
		t.Fatalf("reverse merge span %g != 1.5 (windows 0..5)", c.Span())
	}
}

func TestGoodputMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched merge did not panic")
		}
	}()
	a := NewGoodput(0.1, 1e-2)
	b := NewGoodput(0.2, 1e-2)
	b.Observe(0, 1e-3)
	a.Merge(b)
}
