package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func testGraph() *gen.Dataset {
	return gen.Generate(gen.Config{
		Name: "t", Nodes: 4000, AvgDegree: 16, FeatDim: 4,
		NumClasses: 8, Seed: 7,
	})
}

func TestHashPartitionCoversAllParts(t *testing.T) {
	d := testGraph()
	r := Hash(d.G, 4)
	if err := r.Validate(d.G.NumNodes()); err != nil {
		t.Fatal(err)
	}
	sizes := r.PartSizes()
	for p, s := range sizes {
		if s == 0 {
			t.Errorf("part %d empty", p)
		}
	}
	if r.Imbalance() > 1.01 {
		t.Errorf("hash imbalance %v", r.Imbalance())
	}
}

func TestMetisValidAndBalanced(t *testing.T) {
	d := testGraph()
	for _, k := range []int{2, 4, 8} {
		r := Metis(d.G, k, 1)
		if err := r.Validate(d.G.NumNodes()); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := r.Imbalance(); imb > 1.10 {
			t.Errorf("k=%d imbalance %.3f > 1.10", k, imb)
		}
	}
}

func TestMetisBeatsHashOnEdgeCut(t *testing.T) {
	// The whole point of METIS-style partitioning: far fewer cross-patch
	// edges on a community graph than hash partitioning.
	d := testGraph()
	for _, k := range []int{2, 4, 8} {
		m := Metis(d.G, k, 1)
		h := Hash(d.G, k)
		_, mcut := EdgeCut(d.G, m)
		_, hcut := EdgeCut(d.G, h)
		if mcut > 0.7*hcut {
			t.Errorf("k=%d: metis cut %.3f not clearly better than hash cut %.3f", k, mcut, hcut)
		}
	}
}

func TestMetisDeterministic(t *testing.T) {
	d := testGraph()
	a := Metis(d.G, 4, 3)
	b := Metis(d.G, 4, 3)
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatalf("nondeterministic at node %d", v)
		}
	}
}

func TestMetisK1(t *testing.T) {
	d := testGraph()
	r := Metis(d.G, 1, 0)
	for _, p := range r.Parts {
		if p != 0 {
			t.Fatal("k=1 must assign everything to part 0")
		}
	}
}

func TestMetisTinyGraph(t *testing.T) {
	// Smaller than the coarsening target: straight to initial partition.
	g := graph.FromEdges(6,
		[]graph.NodeID{0, 1, 2, 3, 4, 5, 0, 3},
		[]graph.NodeID{1, 0, 3, 2, 5, 4, 2, 5})
	r := Metis(g, 2, 0)
	if err := r.Validate(6); err != nil {
		t.Fatal(err)
	}
	sizes := r.PartSizes()
	if sizes[0] == 0 || sizes[1] == 0 {
		t.Fatalf("degenerate split %v", sizes)
	}
}

func TestRenumberingBijection(t *testing.T) {
	d := testGraph()
	res := Metis(d.G, 4, 1)
	r := BuildRenumbering(res)
	if err := quick.Check(func(raw uint32) bool {
		v := graph.NodeID(int(raw) % d.G.NumNodes())
		return r.NewID[r.OldID[v]] == v && r.OldID[r.NewID[v]] == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenumberingConsecutiveRanges(t *testing.T) {
	d := testGraph()
	res := Metis(d.G, 4, 1)
	r := BuildRenumbering(res)
	if r.Offsets[0] != 0 || r.Offsets[4] != int64(d.G.NumNodes()) {
		t.Fatalf("offsets %v", r.Offsets)
	}
	// Every node's owner under renumbering equals its original part.
	for old, p := range res.Parts {
		nid := r.NewID[old]
		if r.Owner(nid) != int(p) {
			t.Fatalf("node %d: owner %d, part %d", old, r.Owner(nid), p)
		}
	}
	// Ranges are exactly the part sizes.
	sizes := res.PartSizes()
	for p := 0; p < 4; p++ {
		lo, hi := r.OwnedRange(p)
		if int(hi-lo) != sizes[p] {
			t.Fatalf("part %d range size %d, want %d", p, hi-lo, sizes[p])
		}
	}
}

func TestApplyToGraphPreservesStructure(t *testing.T) {
	d := testGraph()
	res := Metis(d.G, 4, 1)
	r := BuildRenumbering(res)
	ng := r.ApplyToGraph(d.G)
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != d.G.NumEdges() {
		t.Fatal("edge count changed")
	}
	// Spot-check: adjacency of new node nid equals remapped adjacency of
	// the old node.
	rr := rng.New(4)
	for trial := 0; trial < 100; trial++ {
		nid := graph.NodeID(rr.Intn(ng.NumNodes()))
		old := r.OldID[nid]
		a := ng.Neighbors(nid)
		b := d.G.Neighbors(old)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", nid)
		}
		for i := range a {
			if a[i] != r.NewID[b[i]] {
				t.Fatalf("adjacency mismatch at %d[%d]", nid, i)
			}
		}
	}
}

// TestApplyToFeaturesAndLabels: labels renumbered by ApplyToLabels and
// feature rows drawn straight into their NewID slots both land where the
// renumbering puts their node.
func TestApplyToFeaturesAndLabels(t *testing.T) {
	d := testGraph()
	res := Hash(d.G, 4)
	r := BuildRenumbering(res)
	n := d.G.NumNodes()
	nf := make([]float32, n*d.FeatDim)
	d.Rows.Draw(nf, r.NewID)
	nodeOrder := make([]graph.NodeID, n)
	for v := range nodeOrder {
		nodeOrder[v] = graph.NodeID(v)
	}
	feats := make([]float32, n*d.FeatDim)
	d.Rows.Draw(feats, nodeOrder)
	nl := r.ApplyToLabels(d.Labels)
	for nid := 0; nid < n; nid++ {
		old := r.OldID[nid]
		if nl[nid] != d.Labels[old] {
			t.Fatalf("label mismatch at %d", nid)
		}
		of := feats[int(old)*d.FeatDim : int(old+1)*d.FeatDim]
		for j := 0; j < d.FeatDim; j++ {
			if nf[nid*d.FeatDim+j] != of[j] {
				t.Fatalf("feature mismatch at %d[%d]", nid, j)
			}
		}
	}
}

func TestSortOwned(t *testing.T) {
	d := testGraph()
	res := Metis(d.G, 4, 1)
	r := BuildRenumbering(res)
	train := r.ApplyToIDs(d.TrainIdx)
	total := 0
	for p := 0; p < 4; p++ {
		owned := r.SortOwned(train, p)
		total += len(owned)
		lo, hi := r.OwnedRange(p)
		for i, v := range owned {
			if v < lo || v >= hi {
				t.Fatalf("part %d got foreign seed %d", p, v)
			}
			if i > 0 && owned[i-1] >= v {
				t.Fatalf("part %d seeds not sorted", p)
			}
		}
	}
	if total != len(train) {
		t.Fatalf("seed co-partition lost nodes: %d of %d", total, len(train))
	}
}

func TestEdgeCutSymmetricCounting(t *testing.T) {
	// Two cliques joined by one edge, split at the bridge: cut counts the
	// bridge's adjacency entries.
	var src, dst []graph.NodeID
	addBoth := func(a, b graph.NodeID) {
		src = append(src, a, b)
		dst = append(dst, b, a)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			addBoth(graph.NodeID(i), graph.NodeID(j))
			addBoth(graph.NodeID(i+4), graph.NodeID(j+4))
		}
	}
	addBoth(0, 4)
	g := graph.FromEdges(8, src, dst)
	r := &Result{K: 2, Parts: []int32{0, 0, 0, 0, 1, 1, 1, 1}}
	cut, frac := EdgeCut(g, r)
	if cut != 2 {
		t.Fatalf("cut=%d, want 2 (both directions of the bridge)", cut)
	}
	if frac <= 0 || frac >= 1 {
		t.Fatalf("frac=%v", frac)
	}
}

func TestMetisEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil, nil)
	for _, k := range []int{1, 2, 8} {
		r := Metis(g, k, 3)
		if r.K != k || len(r.Parts) != 0 {
			t.Fatalf("k=%d: got K=%d with %d assignments", k, r.K, len(r.Parts))
		}
		if err := r.Validate(0); err != nil {
			t.Fatal(err)
		}
		if imb := r.Imbalance(); imb != 0 {
			t.Fatalf("k=%d: imbalance %v of no nodes, want 0", k, imb)
		}
	}
	if imb := (&Result{K: 2}).Imbalance(); imb != 0 {
		t.Fatalf("imbalance %v of an empty result, want 0", imb)
	}
}

func TestMetisMorePartsThanNodes(t *testing.T) {
	g := graph.FromEdges(3, []graph.NodeID{0, 1}, []graph.NodeID{1, 2})
	r := Metis(g, 8, 1)
	if err := r.Validate(3); err != nil {
		t.Fatal(err)
	}
	for p, s := range r.PartSizes() {
		if s > 1 {
			t.Fatalf("part %d holds %d of 3 nodes at k=8: %v", p, s, r.PartSizes())
		}
	}
}

// TestBalanceLimitAchievable: 1.05 x 10/4 truncates to 2, below the 3 some
// part must hold; with the limit clamped, a 10-node ring at k=4 ends balanced
// (it ended [2 2 2 4] with the limit at 2).
func TestBalanceLimitAchievable(t *testing.T) {
	for total := int64(1); total <= 400; total++ {
		for k := 1; k <= 9; k++ {
			ceil := (total + int64(k) - 1) / int64(k)
			if got := balanceLimit(total, k); got < ceil {
				t.Fatalf("balanceLimit(%d, %d) = %d, below ceil %d", total, k, got, ceil)
			} else if want := int64(float64(total) / float64(k) * maxImbalance); total/int64(k) >= 20 && got != want {
				t.Fatalf("balanceLimit(%d, %d) = %d, want the unclamped %d", total, k, got, want)
			}
		}
	}
	var src, dst []graph.NodeID
	for v := graph.NodeID(0); v < 10; v++ {
		src = append(src, v, (v+1)%10)
		dst = append(dst, (v+1)%10, v)
	}
	g := graph.FromEdges(10, src, dst)
	for seed := uint64(0); seed < 20; seed++ {
		r := Metis(g, 4, seed)
		for _, s := range r.PartSizes() {
			if s > 3 {
				t.Fatalf("seed %d: sizes %v, want none above ceil(10/4)", seed, r.PartSizes())
			}
		}
	}
}

// TestConnectivityExact: refine and rebalance read every gain from the
// connectivity table and never recount a list, so a stale entry would steer
// moves without any test of the output saying why. Hold the table to a fresh
// count after random moves — a quarter of them into part 0, which then runs
// over the limit — and after each rebalance those moves make necessary.
func TestConnectivityExact(t *testing.T) {
	const k = 5
	w := buildWork(testGraph().G)
	r := rng.New(11)
	parts := make([]int32, w.n)
	for v := range parts {
		parts[v] = int32(r.Intn(k))
	}
	conn := w.connectivity(parts, k)
	order := make([]int, w.n)
	limit := balanceLimit(w.totalW, k)
	rebalanced := 0
	for i := 0; i < 2000; i++ {
		v := int32(r.Intn(w.n))
		to := (parts[v] + 1 + int32(r.Intn(k-1))) % k
		if r.Intn(4) == 0 {
			to = 0
		}
		w.relocate(v, to, parts, k, conn)
		if i%200 != 199 {
			continue
		}
		partW := make([]int64, k)
		for u, p := range parts {
			partW[p] += w.nw[u]
		}
		if partW[0] > limit { // node weights are 1: rebalance moves nodes out
			w.rebalance(parts, k, partW, limit, conn, order, r)
			rebalanced++
		}
		for j, want := range w.connectivity(parts, k) {
			if conn[j] != want {
				t.Fatalf("after %d moves: conn[%d][%d] = %d, a fresh count says %d", i+1, j/k, j%k, conn[j], want)
			}
		}
	}
	if rebalanced == 0 {
		t.Fatal("no part went over the limit: the test does not cover rebalance's moves")
	}
}
