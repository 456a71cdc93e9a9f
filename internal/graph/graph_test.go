package graph

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// triangle returns a small directed test graph:
// adjacency (in-neighbour) lists: 0:[1 2], 1:[0], 2:[0 1], 3:[].
func triangle() *CSR {
	return FromEdges(4,
		[]NodeID{1, 2, 0, 0, 1},
		[]NodeID{0, 0, 1, 2, 2})
}

func TestFromEdgesBasics(t *testing.T) {
	g := triangle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 5 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(3))
	}
	nb := append([]NodeID(nil), g.Neighbors(0)...)
	sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors(0) = %v", nb)
	}
}

func TestFromEdgesPreservesMultiplicity(t *testing.T) {
	g := FromEdges(2, []NodeID{0, 0, 0}, []NodeID{1, 1, 1})
	if g.Degree(1) != 3 {
		t.Fatalf("multi-edge degree = %d, want 3", g.Degree(1))
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := triangle()
	g.Indices[0] = 99
	if g.Validate() == nil {
		t.Fatal("out-of-range index not caught")
	}
	g = triangle()
	g.Indptr[1] = -1
	if g.Validate() == nil {
		t.Fatal("non-monotone indptr not caught")
	}
	g = triangle()
	g.Weights = []float32{1}
	if g.Validate() == nil {
		t.Fatal("weight length mismatch not caught")
	}
	g = triangle()
	g.Weights = []float32{1, 1, 1, 1, -1}
	if g.Validate() == nil {
		t.Fatal("negative weight not caught")
	}
}

func TestWeightSum(t *testing.T) {
	g := triangle()
	if got := g.WeightSum(0); got != 2 {
		t.Fatalf("unweighted WeightSum = %v, want degree 2", got)
	}
	g.Weights = []float32{0.5, 1.5, 1, 1, 1}
	if got := g.WeightSum(0); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("weighted WeightSum = %v, want 2.0", got)
	}
}

func TestFromEdgesProperty(t *testing.T) {
	// Property: every emitted edge appears exactly once in the CSR.
	r := rng.New(7)
	check := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 2 + rr.Intn(50)
		m := rr.Intn(200)
		src := make([]NodeID, m)
		dst := make([]NodeID, m)
		count := map[[2]NodeID]int{}
		for i := 0; i < m; i++ {
			src[i] = NodeID(rr.Intn(n))
			dst[i] = NodeID(rr.Intn(n))
			count[[2]NodeID{src[i], dst[i]}]++
		}
		g := FromEdges(n, src, dst)
		if g.Validate() != nil || g.NumEdges() != int64(m) {
			return false
		}
		got := map[[2]NodeID]int{}
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(NodeID(v)) {
				got[[2]NodeID{u, NodeID(v)}]++
			}
		}
		if len(got) != len(count) {
			return false
		}
		for k, c := range count {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(s uint64) bool { return check(s) }, &quick.Config{MaxCount: 50, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestNodesByDegreeDesc(t *testing.T) {
	g := triangle()
	order := g.NodesByDegreeDesc()
	if len(order) != 4 {
		t.Fatalf("len=%d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if g.Degree(order[i]) > g.Degree(order[i-1]) {
			t.Fatalf("not descending at %d: %v", i, order)
		}
	}
	// Ties broken by ascending id: nodes 0 and 2 both have degree 2.
	if order[0] != 0 || order[1] != 2 {
		t.Fatalf("tie-break wrong: %v", order)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := triangle()
	pr := g.PageRank(0.85, 30)
	var sum float64
	for _, p := range pr {
		if p < 0 {
			t.Fatal("negative pagerank")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("pagerank sum = %v", sum)
	}
}

func TestPageRankFavorsHubs(t *testing.T) {
	// Star: node 0 has in-edges from everyone.
	n := 20
	var src, dst []NodeID
	for i := 1; i < n; i++ {
		src = append(src, NodeID(i))
		dst = append(dst, 0)
		// Back edges so nothing dangles completely.
		src = append(src, 0)
		dst = append(dst, NodeID(i))
	}
	g := FromEdges(n, src, dst)
	pr := g.PageRank(0.85, 50)
	for i := 1; i < n; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub rank %v not above leaf rank %v", pr[0], pr[i])
		}
	}
}

func TestReverseIsInvolution(t *testing.T) {
	g := triangle()
	rr := g.Reverse().Reverse()
	if rr.NumNodes() != g.NumNodes() || rr.NumEdges() != g.NumEdges() {
		t.Fatal("reverse changed size")
	}
	for v := 0; v < g.NumNodes(); v++ {
		a := append([]NodeID(nil), g.Neighbors(NodeID(v))...)
		b := append([]NodeID(nil), rr.Neighbors(NodeID(v))...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if len(a) != len(b) {
			t.Fatalf("node %d: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: %v vs %v", v, a, b)
			}
		}
	}
}

func TestExtractPatch(t *testing.T) {
	g := triangle()
	g.Weights = []float32{1, 2, 3, 4, 5}
	p := ExtractPatch(g, []NodeID{0, 2})
	if len(p.Nodes) != 2 || p.Adj.NumNodes() != 2 {
		t.Fatalf("patch size wrong")
	}
	// Local node 0 is global 0: neighbours {1,2}, weights {1,2}.
	if got := p.Adj.Neighbors(0); len(got) != 2 {
		t.Fatalf("patch adjacency wrong: %v", got)
	}
	if got := p.Adj.NeighborWeights(0); got[0] != 1 || got[1] != 2 {
		t.Fatalf("patch weights wrong: %v", got)
	}
	// Local node 1 is global 2: neighbours {0,1}, weights {4,5}.
	if got := p.Adj.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("patch adjacency for local 1 wrong: %v", got)
	}
}

func TestTopologyBytes(t *testing.T) {
	g := triangle()
	want := int64(5*8 + 5*8) // 64-bit adjacency entries (see TopologyBytes)
	if got := g.TopologyBytes(); got != want {
		t.Fatalf("TopologyBytes=%d want %d", got, want)
	}
	g.Weights = make([]float32, 5)
	if got := g.TopologyBytes(); got != want+20 {
		t.Fatalf("weighted TopologyBytes=%d want %d", got, want+20)
	}
}

// TestNodesByDegreeDescMatchesSort holds the counting sort to the stable
// comparison sort it replaced.
func TestNodesByDegreeDescMatchesSort(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		g := randomCSR(t, 2+trial*7, false, uint64(trial))
		want := make([]NodeID, g.NumNodes())
		for i := range want {
			want[i] = NodeID(i)
		}
		sort.SliceStable(want, func(a, b int) bool {
			da, db := g.Degree(want[a]), g.Degree(want[b])
			if da != db {
				return da > db
			}
			return want[a] < want[b]
		})
		if got := g.NodesByDegreeDesc(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

// TestRangePatchAliasesGraph: a flat patch over a contiguous range equals the
// copying path, shares the graph's arrays, and its capacity stops at the
// range's end.
func TestRangePatchAliasesGraph(t *testing.T) {
	r := rng.New(11)
	g := randomCSR(t, 200, true, 11)
	for trial := 0; trial < 50; trial++ {
		lo := r.Intn(g.NumNodes())
		hi := lo + 1 + r.Intn(g.NumNodes()-lo)
		nodes := make([]NodeID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			nodes = append(nodes, NodeID(v))
		}
		got := ExtractPatch(g, nodes)
		if want := copyPatch(g, nodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("[%d,%d): patch differs from the copy", lo, hi)
		}
		n := len(got.Adj.Indices)
		if cap(got.Adj.Indices) != n || cap(got.Adj.Weights) != n {
			t.Fatalf("[%d,%d): cap %d/%d for %d entries", lo, hi, cap(got.Adj.Indices), cap(got.Adj.Weights), n)
		}
		if n > 0 && (&got.Adj.Indices[0] != &g.Indices[g.Indptr[lo]] || &got.Adj.Weights[0] != &g.Weights[g.Indptr[lo]]) {
			t.Fatalf("[%d,%d): patch copied the graph's arrays", lo, hi)
		}
	}
	// A gap in the node list takes the copying path.
	p := ExtractPatch(g, []NodeID{3, 5})
	if !reflect.DeepEqual(p, copyPatch(g, []NodeID{3, 5})) {
		t.Fatal("non-contiguous patch differs from the copy")
	}
}
