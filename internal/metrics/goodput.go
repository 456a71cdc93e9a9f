package metrics

import "fmt"

// Goodput is a windowed within-SLO completion counter: it counts how many
// requests completed at all and how many within the latency SLO, and the
// first and last fixed-width window of virtual time a completion fell in. It
// answers "how much useful work per virtual second did the fleet deliver",
// which a plain throughput number cannot (late answers count for nothing
// against an SLO).
//
// Like Histogram, Goodput merges losslessly: merging two counters built from
// disjoint observation streams yields exactly the counter that would have
// observed the union (counts add, window bounds widen). Counters only merge
// when their window width and SLO agree — merging mismatched configurations
// would silently corrupt the accounting, so it panics.
type Goodput struct {
	window float64
	slo    float64
	good   uint64
	minW   int
	maxW   int
	count  uint64
}

// NewGoodput returns an empty counter with the given window width (virtual
// seconds per bucket) and latency SLO. Both must be positive.
func NewGoodput(window, slo float64) *Goodput {
	if window <= 0 {
		panic("metrics: goodput window must be positive")
	}
	if slo <= 0 {
		panic("metrics: goodput SLO must be positive")
	}
	return &Goodput{window: window, slo: slo}
}

// Window returns the bucket width in virtual seconds.
func (g *Goodput) Window() float64 { return g.window }

// SLO returns the latency objective.
func (g *Goodput) SLO() float64 { return g.slo }

func (g *Goodput) windowOf(doneAt float64) int {
	if doneAt < 0 {
		doneAt = 0
	}
	return int(doneAt / g.window)
}

// Observe records one completed request: doneAt is its completion instant in
// virtual seconds, latency its end-to-end latency. The request counts toward
// goodput iff latency <= SLO.
func (g *Goodput) Observe(doneAt, latency float64) {
	w := g.windowOf(doneAt)
	if g.count == 0 || w < g.minW {
		g.minW = w
	}
	if g.count == 0 || w > g.maxW {
		g.maxW = w
	}
	if latency <= g.slo {
		g.good++
	}
	g.count++
}

// Total returns the number of completions observed.
func (g *Goodput) Total() uint64 { return g.count }

// Good returns the number of completions within SLO.
func (g *Goodput) Good() uint64 { return g.good }

// GoodFraction is the fraction of completions within SLO (0 if empty).
func (g *Goodput) GoodFraction() float64 {
	if g.count == 0 {
		return 0
	}
	return float64(g.Good()) / float64(g.count)
}

// Span is the virtual-time extent covered by the observed windows (whole
// windows, so an observer that saw a single request still spans one window).
func (g *Goodput) Span() float64 {
	if g.count == 0 {
		return 0
	}
	return float64(g.maxW-g.minW+1) * g.window
}

// Rate is the goodput in within-SLO completions per virtual second, averaged
// over the observed span (0 if empty).
func (g *Goodput) Rate() float64 {
	span := g.Span()
	if span == 0 {
		return 0
	}
	return float64(g.Good()) / span
}

// Merge adds all observations recorded in other into g. Merging is lossless
// (counts are additive). It panics if the two counters disagree on window
// width or SLO — Histogram.Merge semantics over compatible configurations.
func (g *Goodput) Merge(other *Goodput) {
	if other == nil || other.count == 0 {
		return
	}
	if other.window != g.window || other.slo != g.slo {
		panic(fmt.Sprintf("metrics: goodput merge mismatch: window %g/%g slo %g/%g",
			g.window, other.window, g.slo, other.slo))
	}
	if g.count == 0 || other.minW < g.minW {
		g.minW = other.minW
	}
	if g.count == 0 || other.maxW > g.maxW {
		g.maxW = other.maxW
	}
	g.good += other.good
	g.count += other.count
}

// String summarises the counter for logs.
func (g *Goodput) String() string {
	return fmt.Sprintf("good=%d/%d (%.1f%%) rate=%.4g/s slo=%.4g window=%.4g",
		g.Good(), g.count, 100*g.GoodFraction(), g.Rate(), g.slo, g.window)
}
