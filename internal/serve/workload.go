package serve

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/train"
)

// Workload is a seeded open-loop request source: Poisson arrivals whose
// target nodes follow a power-law popularity over the degree ranking —
// production GNN serving concentrates on hub entities (popular items,
// high-follower accounts), and on the synthetic power-law datasets the
// degree ranking is exactly that hot-node concentration.
type Workload struct {
	// ranked[i] is the i-th most popular node (layout id).
	ranked []graph.NodeID
	// cum[i] is the cumulative popularity mass of ranked[0..i].
	cum []float64
	// weights[v] is node v's popularity mass (indexed by node id).
	weights []float64

	// Drifting popularity: every driftEvery of virtual time the rank→node
	// assignment is re-drawn (the mass profile stays fixed, but which nodes
	// are hot changes), modelling trending-content churn in production
	// serving. Phase 0 is the identity mapping, so an un-drifted workload
	// (driftEvery <= 0) is bit-identical to the original.
	driftEvery sim.Time
	driftSeed  uint64
	phase      int
	phased     []graph.NodeID // current phase's rank→node mapping
}

// NewWorkload ranks d's nodes by degree and assigns popularity mass
// proportional to 1/(rank+1)^skew. skew 0 is uniform; ~1 matches the
// heavy-tailed access patterns of production feature stores. driftEvery > 0
// re-draws the rank→node assignment at that virtual period, from a stream of
// seed independent of the arrival process (so drift does not perturb arrival
// timing).
func NewWorkload(d *train.Data, skew float64, driftEvery sim.Time, seed uint64) *Workload {
	w := &Workload{
		ranked:     d.G.NodesByDegreeDesc(),
		weights:    make([]float64, d.G.NumNodes()),
		driftEvery: driftEvery,
		driftSeed:  rng.Mix(seed, 0xD21F7),
	}
	w.cum = make([]float64, len(w.ranked))
	var total float64
	for i, v := range w.ranked {
		mass := 1.0
		if skew != 0 {
			mass = math.Pow(float64(i+1), -skew)
		}
		total += mass
		w.cum[i] = total
		w.weights[v] = mass
	}
	return w
}

// mapping returns the rank→node assignment in effect at virtual time now.
func (w *Workload) mapping(now sim.Time) []graph.NodeID {
	if w.driftEvery <= 0 {
		return w.ranked
	}
	phase := int(now / w.driftEvery)
	if phase == 0 {
		return w.ranked
	}
	if w.phased == nil || phase != w.phase {
		// Fisher-Yates over a fresh copy, seeded by (driftSeed, phase): the
		// mapping is a pure function of the phase index, so out-of-order or
		// repeated queries are consistent.
		if w.phased == nil {
			w.phased = make([]graph.NodeID, len(w.ranked))
		}
		copy(w.phased, w.ranked)
		r := rng.New(rng.Mix(w.driftSeed, uint64(phase)))
		for i := len(w.phased) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			w.phased[i], w.phased[j] = w.phased[j], w.phased[i]
		}
		w.phase = phase
	}
	return w.phased
}

// Draw samples one target node from the popularity distribution in effect at
// virtual time now.
func (w *Workload) Draw(r *rng.RNG, now sim.Time) graph.NodeID {
	u := r.Float64() * w.cum[len(w.cum)-1]
	i := sort.SearchFloat64s(w.cum, u)
	if i >= len(w.ranked) {
		i = len(w.ranked) - 1
	}
	return w.mapping(now)[i]
}

// Weights exposes the per-node phase-0 popularity mass (for expected
// cache-hit-rate estimates via featstore.Store.CachedFraction).
func (w *Workload) Weights() []float64 { return w.weights }
