// Package gen generates synthetic graph datasets that stand in for the
// paper's evaluation graphs (OGB Products, OGB Papers100M, Friendster).
//
// The real datasets cannot be downloaded here, so per the substitution rule
// we generate seeded power-law community graphs with matched average degree
// and feature dimension, at node counts scaled down by a per-dataset factor;
// the simulated GPU memory is scaled by the same factor (see internal/bench)
// so the cache-pressure regimes — which drive the paper's results — match.
// Labels are community ids and features are noisy class centroids, so the
// GNN models genuinely learn (Figure 9's accuracy curves are real).
package gen

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Config controls synthetic dataset generation.
type Config struct {
	Name       string
	Nodes      int
	AvgDegree  float64 // directed adjacency entries per node
	FeatDim    int
	NumClasses int
	// PowerLaw is the degree-distribution exponent (typical social/citation
	// graphs: 2.0-2.5; lower = more skew, hotter hot nodes).
	PowerLaw float64
	// IntraProb is the probability an edge endpoint stays inside the
	// community (community structure makes METIS partitioning meaningful).
	IntraProb float64
	// FeatureSignal scales the class centroid relative to unit noise.
	FeatureSignal float64
	// TrainFrac / ValFrac select seed nodes; the rest is test.
	TrainFrac, ValFrac float64
	Seed               uint64
}

// Dataset is a generated graph with labels, splits and what draws its
// features. Generate draws no feature value: Rows draws them on demand.
type Dataset struct {
	Name       string
	G          *graph.CSR
	FeatDim    int
	Labels     []int32
	NumClasses int
	TrainIdx   []graph.NodeID
	ValIdx     []graph.NodeID
	TestIdx    []graph.NodeID
	Rows       FeatureRows
}

// FeatureRows draws a dataset's feature rows: node v's row is its class
// centroid scaled by the signal plus unit Gaussian noise, node by node from
// one stream. It holds that stream as it was before its first draw, so every
// Draw writes the same values.
type FeatureRows struct {
	labels    []int32
	centroids [][]float32
	signal    float32
	noise     rng.RNG
}

// Draw writes every node's row into dst, which holds one row per node: node
// v's row lands at row slot[v].
func (f *FeatureRows) Draw(dst []float32, slot []graph.NodeID) {
	noise := f.noise
	for v, c := range f.labels {
		cen := f.centroids[c]
		row := dst[int(slot[v])*len(cen):][:len(cen)]
		for j, x := range cen {
			row[j] = f.signal*x + float32(noise.NormFloat64())
		}
	}
}

// withDefaults fills the zero-value knobs.
func (cfg Config) withDefaults() Config {
	if cfg.PowerLaw == 0 {
		cfg.PowerLaw = 2.2
	}
	if cfg.IntraProb == 0 {
		cfg.IntraProb = 0.8
	}
	if cfg.FeatureSignal == 0 {
		cfg.FeatureSignal = 1.0
	}
	if cfg.TrainFrac == 0 {
		cfg.TrainFrac = 0.2
	}
	if cfg.ValFrac == 0 {
		cfg.ValFrac = 0.1
	}
	return cfg
}

// Generate builds a dataset from the config. The same config (including
// Seed) always produces the same dataset.
func Generate(cfg Config) *Dataset {
	if cfg.Nodes <= 0 || cfg.AvgDegree <= 0 || cfg.FeatDim <= 0 || cfg.NumClasses <= 0 {
		panic(fmt.Sprintf("gen: invalid config %+v", cfg))
	}
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	n := cfg.Nodes

	// Assign nodes to communities in contiguous runs of randomised length,
	// then shuffle node ids so community != id order (the partitioner has
	// to discover the structure).
	labels := make([]int32, n)
	perClass := n / cfg.NumClasses
	for v := 0; v < n; v++ {
		c := v / perClass
		if c >= cfg.NumClasses {
			c = cfg.NumClasses - 1
		}
		labels[v] = int32(c)
	}
	// Community member lists.
	members := make([][]graph.NodeID, cfg.NumClasses)
	for v := 0; v < n; v++ {
		members[labels[v]] = append(members[labels[v]], graph.NodeID(v))
	}

	// Power-law degree propensities (Chung-Lu style): w_i = (i+1)^(-1/(a-1))
	// over a random permutation of nodes, scaled to hit the target edge
	// count in expectation. Hot nodes emerge inside every community.
	alpha := 1.0 / (cfg.PowerLaw - 1.0)
	prop := make([]float64, n)
	var propSum float64
	for i, v := range r.Perm(n) {
		w := math.Pow(float64(i+1), -alpha)
		prop[v] = w
		propSum += w
	}

	// Build alias-like cumulative samplers per community and globally, over
	// propensities, for endpoint selection.
	global := newWeightedSampler(prop)
	community := make([]*weightedSampler, cfg.NumClasses)
	for c := 0; c < cfg.NumClasses; c++ {
		w := make([]float64, len(members[c]))
		for i, v := range members[c] {
			w[i] = prop[v]
		}
		community[c] = newWeightedSampler(w)
	}

	// Each node receives in-edges proportional to its propensity, from
	// endpoints drawn within-community with IntraProb.
	targetEdges := int64(float64(n) * cfg.AvgDegree)
	src := make([]graph.NodeID, 0, targetEdges)
	dst := make([]graph.NodeID, 0, targetEdges)
	for v := 0; v < n; v++ {
		share := prop[v] / propSum
		deg := int(share * float64(targetEdges))
		// Probabilistic rounding keeps the total close to target.
		frac := share*float64(targetEdges) - float64(deg)
		if r.Float64() < frac {
			deg++
		}
		if deg == 0 {
			deg = 1 // no isolated nodes
		}
		c := labels[v]
		for k := 0; k < deg; k++ {
			var u graph.NodeID
			if r.Float64() < cfg.IntraProb {
				u = members[c][community[c].Sample(r)]
			} else {
				u = graph.NodeID(global.Sample(r))
			}
			if u == graph.NodeID(v) {
				u = members[c][community[c].Sample(r)]
				if u == graph.NodeID(v) {
					continue
				}
			}
			src = append(src, u)
			dst = append(dst, graph.NodeID(v))
		}
	}
	g := graph.FromEdges(n, src, dst)

	// Features: class centroid + unit Gaussian noise. The centroids are drawn
	// and the noise stream split off here, so the splits below do not depend
	// on whether a row is ever drawn; Rows.Draw draws the noise.
	centroids := make([][]float32, cfg.NumClasses)
	cr := r.Split()
	for c := range centroids {
		centroids[c] = make([]float32, cfg.FeatDim)
		for j := range centroids[c] {
			centroids[c][j] = float32(cr.NormFloat64())
		}
	}
	rows := FeatureRows{labels: labels, centroids: centroids, signal: float32(cfg.FeatureSignal), noise: *r.Split()}

	// Splits.
	order := r.Perm(n)
	nTrain := int(cfg.TrainFrac * float64(n))
	nVal := int(cfg.ValFrac * float64(n))
	d := &Dataset{
		Name: cfg.Name, G: g, FeatDim: cfg.FeatDim,
		Labels: labels, NumClasses: cfg.NumClasses, Rows: rows,
	}
	for i, v := range order {
		switch {
		case i < nTrain:
			d.TrainIdx = append(d.TrainIdx, graph.NodeID(v))
		case i < nTrain+nVal:
			d.ValIdx = append(d.ValIdx, graph.NodeID(v))
		default:
			d.TestIdx = append(d.TestIdx, graph.NodeID(v))
		}
	}
	return d
}

// AttachUniformWeights adds per-edge weights drawn uniformly from (0, 1] for
// biased-sampling experiments (DSP stores neighbour node weights on edges;
// here we derive a stable per-node weight and replicate it per edge).
func (d *Dataset) AttachUniformWeights(seed uint64) {
	r := rng.New(seed)
	n := d.G.NumNodes()
	nodeW := make([]float32, n)
	for i := range nodeW {
		nodeW[i] = float32(r.Float64()) + 1e-3
	}
	w := make([]float32, len(d.G.Indices))
	for i, u := range d.G.Indices {
		w[i] = nodeW[u]
	}
	d.G.Weights = w
}

// weightedSampler draws indices with probability proportional to weights
// using the alias method (O(1) per draw).
type weightedSampler struct {
	prob  []float64
	alias []int
}

func newWeightedSampler(weights []float64) *weightedSampler {
	n := len(weights)
	s := &weightedSampler{prob: make([]float64, n), alias: make([]int, n)}
	if n == 0 {
		return s
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, i := range large {
		s.prob[i] = 1
		s.alias[i] = i
	}
	for _, i := range small {
		s.prob[i] = 1
		s.alias[i] = i
	}
	return s
}

// Sample draws one index.
func (s *weightedSampler) Sample(r *rng.RNG) int {
	i := r.Intn(len(s.prob))
	if r.Float64() < s.prob[i] {
		return i
	}
	return s.alias[i]
}
