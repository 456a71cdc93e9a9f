package sample

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func lineGraph(n int) *graph.CSR {
	// Node v has in-neighbours {0..n-1} \ {v} (complete graph) — handy for
	// exact distribution tests.
	var src, dst []graph.NodeID
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if u != v {
				src = append(src, graph.NodeID(u))
				dst = append(dst, graph.NodeID(v))
			}
		}
	}
	return graph.FromEdges(n, src, dst)
}

func TestUniformSubsetAndSize(t *testing.T) {
	r := rng.New(1)
	adj := []graph.NodeID{10, 20, 30, 40, 50}
	if err := quick.Check(func(f uint8) bool {
		fanout := int(f%8) + 1
		out := Uniform(rng.New(uint64(f)), adj, fanout, nil)
		want := fanout
		if want > len(adj) {
			want = len(adj)
		}
		if len(out) != want {
			return false
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range out {
			if seen[v] {
				return false // replacement in no-replacement draw
			}
			seen[v] = true
			ok := false
			for _, a := range adj {
				if a == v {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestUniformIsUniform(t *testing.T) {
	adj := []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	counts := make([]int, 10)
	r := rng.New(2)
	const trials = 60000
	for i := 0; i < trials; i++ {
		for _, v := range Uniform(r, adj, 3, nil) {
			counts[v]++
		}
	}
	want := float64(trials) * 3 / 10
	for v, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("node %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestUniformWithReplacementExactCount(t *testing.T) {
	adj := []graph.NodeID{1, 2}
	out := UniformWithReplacement(rng.New(3), adj, 10, nil)
	if len(out) != 10 {
		t.Fatalf("got %d, want 10", len(out))
	}
}

func TestEmptyAdjacency(t *testing.T) {
	if out := Uniform(rng.New(1), nil, 5, nil); len(out) != 0 {
		t.Fatal("sampled from empty adjacency")
	}
	if out := Weighted(rng.New(1), nil, nil, 5, nil, new(Keys)); len(out) != 0 {
		t.Fatal("weighted sampled from empty adjacency")
	}
}

func TestWeightedFollowsWeights(t *testing.T) {
	adj := []graph.NodeID{0, 1, 2, 3}
	w := []float32{1, 2, 3, 4}
	counts := make([]float64, 4)
	r := rng.New(5)
	const trials = 100000
	for i := 0; i < trials; i++ {
		for _, v := range Weighted(r, adj, w, 1, nil, new(Keys)) {
			counts[v]++
		}
	}
	for v := 0; v < 4; v++ {
		want := float64(w[v]) / 10 * trials
		if math.Abs(counts[v]-want)/want > 0.05 {
			t.Errorf("node %d: %v draws, want ~%v", v, counts[v], want)
		}
	}
}

func TestWeightedZeroWeightNeverDrawn(t *testing.T) {
	adj := []graph.NodeID{0, 1, 2}
	w := []float32{1, 0, 1}
	r := rng.New(6)
	for i := 0; i < 1000; i++ {
		for _, v := range Weighted(r, adj, w, 2, nil, new(Keys)) {
			if v == 1 {
				t.Fatal("zero-weight neighbour drawn")
			}
		}
	}
}

func TestWeightedWithReplacementDistribution(t *testing.T) {
	adj := []graph.NodeID{0, 1}
	w := []float32{1, 3}
	counts := make([]float64, 2)
	r := rng.New(7)
	const trials = 100000
	for i := 0; i < trials; i++ {
		for _, v := range WeightedWithReplacement(r, adj, w, 1, nil) {
			counts[v]++
		}
	}
	if math.Abs(counts[1]/trials-0.75) > 0.01 {
		t.Errorf("weight-3 node drawn %.3f, want ~0.75", counts[1]/trials)
	}
}

func TestLayerBudgetSumsToBudget(t *testing.T) {
	r := rng.New(8)
	masses := []float64{1, 2, 3, 4}
	for _, n := range []int{0, 1, 10, 1000} {
		counts := LayerBudget(r, masses, n)
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if sum != n {
			t.Fatalf("budget %d split into %d", n, sum)
		}
	}
}

func TestLayerBudgetProportional(t *testing.T) {
	r := rng.New(9)
	masses := []float64{1, 4}
	total := [2]float64{}
	for i := 0; i < 300; i++ {
		c := LayerBudget(r, masses, 100)
		total[0] += float64(c[0])
		total[1] += float64(c[1])
	}
	frac := total[1] / (total[0] + total[1])
	if math.Abs(frac-0.8) > 0.02 {
		t.Errorf("mass-4 share %.3f, want ~0.8", frac)
	}
}

func TestLayerBudgetWithoutReplacementRespectsCapacity(t *testing.T) {
	r := rng.New(10)
	masses := []float64{10, 1, 1}
	capacity := []int{2, 5, 5}
	counts := LayerBudgetWithoutReplacement(r, masses, capacity, 10)
	sum := 0
	for i, c := range counts {
		if c > capacity[i] {
			t.Fatalf("count %d exceeds capacity %d", c, capacity[i])
		}
		sum += c
	}
	if sum != 10 {
		t.Fatalf("budget not met: %d (capacity allows 12)", sum)
	}
}

func TestLayerBudgetWithoutReplacementExhaustsCapacity(t *testing.T) {
	r := rng.New(11)
	counts := LayerBudgetWithoutReplacement(r, []float64{1, 1}, []int{2, 3}, 100)
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("counts %v, want full capacity [2 3]", counts)
	}
}

func testDataset() *gen.Dataset {
	return gen.Generate(gen.Config{
		Name: "t", Nodes: 3000, AvgDegree: 12, FeatDim: 4, NumClasses: 6, Seed: 99,
	})
}

func TestReferenceNodeWiseStructure(t *testing.T) {
	d := testDataset()
	seeds := d.TrainIdx[:64]
	cfg := Config{Fanout: []int{5, 3, 2}}
	mb := Reference(d.G, seeds, cfg, 1234)
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(mb.Blocks) != 3 {
		t.Fatalf("blocks=%d", len(mb.Blocks))
	}
	// Fan-out respected per dst in the output block (fanout[0]=5 is the
	// first hop from seeds = last block).
	out := mb.Blocks[2]
	for i, v := range out.Dst {
		n := int(out.SrcPtr[i+1] - out.SrcPtr[i])
		wantMax := 5
		if d.G.Degree(v) < wantMax {
			wantMax = d.G.Degree(v)
		}
		if n != wantMax {
			t.Fatalf("seed %d sampled %d, want %d", v, n, wantMax)
		}
	}
	// All samples are true neighbours.
	for l, b := range mb.Blocks {
		for i, v := range b.Dst {
			adj := d.G.Neighbors(v)
			for _, s := range b.Src[b.SrcPtr[i]:b.SrcPtr[i+1]] {
				found := false
				for _, a := range adj {
					if a == s {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("block %d: %d sampled non-neighbour %d", l, v, s)
				}
			}
		}
	}
}

func TestReferenceDeterministicPerBatchSeed(t *testing.T) {
	d := testDataset()
	seeds := d.TrainIdx[:32]
	cfg := Config{Fanout: []int{4, 4}}
	a := Reference(d.G, seeds, cfg, 7)
	b := Reference(d.G, seeds, cfg, 7)
	c := Reference(d.G, seeds, cfg, 8)
	if a.NumSampledEdges() != b.NumSampledEdges() {
		t.Fatal("same seed, different sample size")
	}
	for l := range a.Blocks {
		for i := range a.Blocks[l].Src {
			if a.Blocks[l].Src[i] != b.Blocks[l].Src[i] {
				t.Fatal("same seed, different samples")
			}
		}
	}
	diff := false
	if c.NumSampledEdges() != a.NumSampledEdges() {
		diff = true
	} else {
		for l := range a.Blocks {
			for i := range a.Blocks[l].Src {
				if a.Blocks[l].Src[i] != c.Blocks[l].Src[i] {
					diff = true
					break
				}
			}
		}
	}
	if !diff {
		t.Fatal("different batch seeds produced identical samples")
	}
}

func TestReferenceBiased(t *testing.T) {
	d := testDataset()
	d.AttachUniformWeights(3)
	seeds := d.TrainIdx[:32]
	cfg := Config{Fanout: []int{5, 5}, Biased: true}
	mb := Reference(d.G, seeds, cfg, 77)
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceLayerWise(t *testing.T) {
	d := testDataset()
	seeds := d.TrainIdx[:32]
	for _, withRepl := range []bool{true, false} {
		cfg := Config{Fanout: []int{50, 50}, LayerWise: true, WithReplacement: withRepl}
		mb := Reference(d.G, seeds, cfg, 55)
		if err := mb.Validate(); err != nil {
			t.Fatalf("withRepl=%v: %v", withRepl, err)
		}
		// Layer budget: sampled edges per block at most the budget.
		for l, b := range mb.Blocks {
			if b.NumEdges() > 50 {
				t.Fatalf("withRepl=%v block %d has %d edges > budget 50", withRepl, l, b.NumEdges())
			}
		}
		if !withRepl {
			// Without replacement: within one dst, samples are distinct.
			for _, b := range mb.Blocks {
				for i := range b.Dst {
					seen := map[graph.NodeID]bool{}
					for _, s := range b.Src[b.SrcPtr[i]:b.SrcPtr[i+1]] {
						if seen[s] {
							t.Fatal("duplicate sample without replacement")
						}
						seen[s] = true
					}
				}
			}
		}
	}
}

func TestBuildBlockLocalIndices(t *testing.T) {
	dst := []graph.NodeID{5, 9}
	counts := []int32{2, 1}
	samples := []graph.NodeID{9, 7, 5}
	b := BuildBlock(dst, counts, samples)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// InputNodes: dst first {5,9}, then new src {7}.
	want := []graph.NodeID{5, 9, 7}
	if len(b.InputNodes) != 3 {
		t.Fatalf("input nodes %v", b.InputNodes)
	}
	for i, v := range want {
		if b.InputNodes[i] != v {
			t.Fatalf("input nodes %v, want %v", b.InputNodes, want)
		}
	}
	// SrcLocal: samples {9,7,5} -> {1,2,0}.
	wantLocal := []int32{1, 2, 0}
	for i := range wantLocal {
		if b.SrcLocal[i] != wantLocal[i] {
			t.Fatalf("src local %v, want %v", b.SrcLocal, wantLocal)
		}
	}
}

func TestBuildBlockMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on count/sample mismatch")
		}
	}()
	BuildBlock([]graph.NodeID{1}, []int32{2}, []graph.NodeID{3})
}

// TestNodeSeedFromLayerSeed: a node's seed is the seed chain's step on the
// layer's prefix, for every (batch seed, layer, node) — the budget split's
// node id -1 and the extremes of the seed included — so hoisting LayerSeed
// out of a layer's draws changes no seed.
func TestNodeSeedFromLayerSeed(t *testing.T) {
	r := rng.New(3)
	seeds := []uint64{0, 1, math.MaxUint64, r.Uint64(), r.Uint64()}
	nodes := []graph.NodeID{-1, 0, 1, math.MaxInt32}
	for i := 0; i < 200; i++ {
		nodes = append(nodes, graph.NodeID(r.Intn(1<<31)))
	}
	for _, s := range seeds {
		for l := 0; l < 4; l++ {
			ls := LayerSeed(s, l)
			for _, v := range nodes {
				if got, want := rng.MixStep(ls, uint64(uint32(v))), nodeSeed(s, l, v); got != want {
					t.Fatalf("seed %#x layer %d node %d: step on LayerSeed %#x, nodeSeed %#x", s, l, v, got, want)
				}
			}
		}
	}
}

func TestDrawNodeLocationIndependent(t *testing.T) {
	// The core CSP-equivalence property: a draw on a patch (same adjacency
	// content) equals the draw on the full graph with v's own generator,
	// NodeSeed(batch seed, layer, v).
	d := testDataset()
	full := d.G
	v := d.TrainIdx[0]
	cfg := Config{Fanout: []int{6}}
	a := Uniform(NodeSeed(42, 1, v), full.Neighbors(v), 6, nil)
	// Simulate the owner GPU's local CSR holding just v's adjacency: the
	// adjacency slice is patch-local, but the seeding id stays global.
	patch := graph.ExtractPatch(full, []graph.NodeID{v})
	b := DrawAdj(patch.Adj.Neighbors(0), patch.Adj.NeighborWeights(0), v, LayerSeed(42, 1), 6, cfg, nil, nil)
	if len(a) != len(b) {
		t.Fatalf("draws differ in size: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draws differ: %v vs %v", a, b)
		}
	}
}

// refUniform is Uniform as it stood before the draw-first / gather-second
// reordering: Floyd's algorithm one step at a time, each step's read queued
// behind the previous step's scan. The oracle for TestUniformMatchesReference
// and the baseline beside BenchmarkUniform.
func refUniform(r *rng.RNG, adj []graph.NodeID, fanout int, out []graph.NodeID) []graph.NodeID {
	d := len(adj)
	if d == 0 {
		return out
	}
	if d <= fanout {
		return append(out, adj...)
	}
	base := len(out)
	for i := d - fanout; i < d; i++ {
		t := r.Intn(i + 1)
		picked := false
		for _, v := range out[base:] {
			if v == adj[t] {
				picked = true
				break
			}
		}
		if picked {
			out = append(out, adj[i])
		} else {
			out = append(out, adj[t])
		}
	}
	return out
}

// TestUniformMatchesReference: the reordered kernel returns the reference's
// values and leaves the generator where the reference leaves it, on rows with
// repeated neighbours (where distinct positions are not distinct values), on
// every degree around the fan-out, for a fan-out below one (out comes back
// untouched) and for an out that already holds ids, with and without room.
func TestUniformMatchesReference(t *testing.T) {
	type row struct {
		d, k   int
		dups   bool
		prefix int
		spare  int
	}
	rows := []row{
		{d: 0, k: 5}, {d: 7, k: 0}, {d: 7, k: -1, prefix: 2}, {d: 7, k: -1, prefix: 2, spare: 8},
		{d: 4, k: 5}, {d: 5, k: 5}, {d: 6, k: 5}, {d: 6, k: 5, dups: true},
		{d: 40, k: 10, dups: true, prefix: 3}, {d: 40, k: 10, dups: true, prefix: 3, spare: 64},
		{d: 2, k: 1}, {d: 300, k: 15},
	}
	gen := rng.New(20)
	for len(rows) < 120_000 {
		k := gen.Intn(13) - 1
		d := gen.Intn(48)
		if gen.Intn(3) == 0 {
			d = max(k+gen.Intn(4)-1, 0) // d in {k-1, k, k+1, k+2}
		}
		rows = append(rows, row{d: d, k: k, dups: gen.Intn(2) == 0,
			prefix: gen.Intn(4), spare: gen.Intn(2) * 32})
	}
	for i, rw := range rows {
		adj := make([]graph.NodeID, rw.d)
		universe := 1 << 20
		if rw.dups {
			universe = rw.d/2 + 1
		}
		for j := range adj {
			adj[j] = graph.NodeID(gen.Intn(universe))
		}
		prefix := make([]graph.NodeID, rw.prefix, rw.prefix+rw.spare)
		for j := range prefix {
			prefix[j] = graph.NodeID(-1 - j)
		}
		seed := uint64(i)
		rg, rw2 := rng.New(seed), rng.New(seed)
		got := Uniform(rg, adj, rw.k, prefix)
		want := refUniform(rw2, adj, rw.k, slices.Clone(prefix))
		if !slices.Equal(got, want) {
			t.Fatalf("row %d %+v adj %v: got %v, reference %v", i, rw, adj, got, want)
		}
		if rg.Uint64() != rw2.Uint64() {
			t.Fatalf("row %d %+v: generator left in a different state", i, rw)
		}
		if rw.k <= 0 && len(got) != rw.prefix {
			t.Fatalf("row %d %+v: fan-out below one drew %d ids", i, rw, len(got)-rw.prefix)
		}
	}
}

// refWeighted is Weighted as it stood before its keys moved to caller-owned
// scratch: a fresh candidate slice of the node's degree on every call. The
// oracle for TestWeightedMatchesReference and the baseline beside
// BenchmarkWeighted.
func refWeighted(r *rng.RNG, adj []graph.NodeID, weights []float32, fanout int, out []graph.NodeID) []graph.NodeID {
	d := len(adj)
	if d == 0 {
		return out
	}
	if d <= fanout {
		return append(out, adj...)
	}
	cands := make([]cand, 0, d)
	for i := 0; i < d; i++ {
		w := float64(weights[i])
		if w <= 0 {
			continue
		}
		cands = append(cands, cand{r.Exp(w), i})
	}
	if len(cands) <= fanout {
		for _, c := range cands {
			out = append(out, adj[c.idx])
		}
		return out
	}
	selectSmallest(cands, fanout)
	for i := 0; i < fanout; i++ {
		out = append(out, adj[cands[i].idx])
	}
	return out
}

// TestWeightedMatchesReference: with one Keys carried dirty from row to row
// (longer rows before shorter ones, and back), Weighted returns the
// reference's values in its order and leaves the generator where the
// reference leaves it — on rows with zero weights, tied weights, repeated
// neighbours and every degree around the fan-out.
func TestWeightedMatchesReference(t *testing.T) {
	gen := rng.New(21)
	var keys Keys
	for i := 0; i < 60_000; i++ {
		k := gen.Intn(13) - 1
		d := gen.Intn(64)
		if gen.Intn(3) == 0 {
			d = max(k+gen.Intn(4)-1, 0)
		}
		adj := make([]graph.NodeID, d)
		w := make([]float32, d)
		universe := 1 << 20
		if gen.Intn(2) == 0 {
			universe = d/2 + 1
		}
		for j := range adj {
			adj[j] = graph.NodeID(gen.Intn(universe))
			switch gen.Intn(4) {
			case 0:
				w[j] = 0
			case 1:
				w[j] = 1
			default:
				w[j] = float32(gen.Float64())
			}
		}
		prefix := []graph.NodeID{7, 9}[:gen.Intn(3)]
		seed := gen.Uint64()
		r1, r2 := rng.New(seed), rng.New(seed)
		got := Weighted(r1, adj, w, k, slices.Clone(prefix), &keys)
		want := refWeighted(r2, adj, w, k, slices.Clone(prefix))
		if !slices.Equal(got, want) {
			t.Fatalf("row %d (d=%d k=%d): got %v, want %v", i, d, k, got, want)
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("row %d (d=%d k=%d): generator state differs from the reference", i, d, k)
		}
	}
}
