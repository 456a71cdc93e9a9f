package graph

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// randomCSR builds a random graph with controlled pathologies: node 0 has an
// empty adjacency list and node 1 carries the maximum degree.
func randomCSR(t *testing.T, n int, weighted bool, seed uint64) *CSR {
	t.Helper()
	r := rng.New(seed)
	var src, dst []NodeID
	maxDeg := 3 * n / 2
	for v := 0; v < n; v++ {
		var deg int
		switch v {
		case 0:
			deg = 0
		case 1:
			deg = maxDeg
		default:
			deg = r.Intn(8)
		}
		for k := 0; k < deg; k++ {
			src = append(src, NodeID(r.Intn(n)))
			dst = append(dst, NodeID(v))
		}
	}
	g := FromEdges(n, src, dst)
	if weighted {
		g.Weights = make([]float32, len(g.Indices))
		for i := range g.Weights {
			g.Weights[i] = float32(r.Float64()) + 1e-3
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("random graph invalid: %v", err)
	}
	return g
}

// TestCompressedRoundTrip is the property test of the compressed encoding:
// for random graphs (including an empty-adjacency node and a max-degree
// node), Decompress(Compress(g)) yields identical Indptr/Indices/Weights and
// identical per-node Neighbors views versus the canonical sorted flat CSR,
// at several decode block sizes.
func TestCompressedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n         int
		weighted  bool
		blockSize int
		seed      uint64
	}{
		{1, false, 1, 1},
		{17, false, 1, 2},
		{64, false, 4, 3},
		{64, true, 1, 4},
		{200, true, 8, 5},
		{333, false, 7, 6},
	} {
		g := randomCSR(t, tc.n, tc.weighted, tc.seed)
		want := g.Sorted()
		c := CompressBlocks(g, tc.blockSize)
		if c.NumNodes() != want.NumNodes() || c.NumEdges() != want.NumEdges() {
			t.Fatalf("n=%d: size mismatch: %d/%d nodes, %d/%d edges",
				tc.n, c.NumNodes(), want.NumNodes(), c.NumEdges(), want.NumEdges())
		}
		back := c.Decompress()
		if !reflect.DeepEqual(back.Indptr, want.Indptr) {
			t.Fatalf("n=%d: indptr mismatch", tc.n)
		}
		if !equalIDs(back.Indices, want.Indices) {
			t.Fatalf("n=%d: indices mismatch", tc.n)
		}
		if (back.Weights == nil) != (want.Weights == nil) || !equalF32(back.Weights, want.Weights) {
			t.Fatalf("n=%d: weights mismatch", tc.n)
		}
		for v := 0; v < tc.n; v++ {
			id := NodeID(v)
			if c.Degree(id) != want.Degree(id) {
				t.Fatalf("n=%d node %d: degree %d != %d", tc.n, v, c.Degree(id), want.Degree(id))
			}
			if got, exp := c.Neighbors(id), want.Neighbors(id); !equalIDs(got, exp) {
				t.Fatalf("n=%d node %d: neighbors %v != %v", tc.n, v, got, exp)
			}
			if got, exp := c.NeighborWeights(id), want.NeighborWeights(id); !equalF32(got, exp) {
				t.Fatalf("n=%d node %d: weights %v != %v", tc.n, v, got, exp)
			}
			if math.Abs(c.WeightSum(id)-want.WeightSum(id)) > 1e-9 {
				t.Fatalf("n=%d node %d: weight sum %g != %g", tc.n, v, c.WeightSum(id), want.WeightSum(id))
			}
		}
	}
}

func equalIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompressionRatio checks that a community-structured graph (small id
// gaps) compresses well below the 8-bytes-per-edge flat accounting.
func TestCompressionRatio(t *testing.T) {
	g := randomCSR(t, 500, false, 7)
	c := Compress(g)
	flat, comp := g.TopologyBytes(), c.TopologyBytes()
	if comp >= flat {
		t.Fatalf("compressed %d >= flat %d bytes", comp, flat)
	}
}

// TestRangeBytes asserts the per-range accounting tiles the whole graph.
func TestRangeBytes(t *testing.T) {
	g := randomCSR(t, 96, true, 9)
	for _, bs := range []int{1, 8, 32} {
		c := CompressBlocks(g, bs)
		var sum int64
		for lo := 0; lo < 96; lo += bs {
			hi := lo + bs
			if hi > 96 {
				hi = 96
			}
			sum += c.RangeBytes(NodeID(lo), NodeID(hi))
		}
		if sum != c.TopologyBytes() {
			t.Fatalf("block size %d: range bytes sum %d != topology bytes %d", bs, sum, c.TopologyBytes())
		}
	}
	var sum int64
	for lo := 0; lo < 96; lo += 16 {
		sum += g.RangeBytes(NodeID(lo), NodeID(lo+16))
	}
	if sum != g.TopologyBytes() {
		t.Fatalf("flat range bytes sum %d != topology bytes %d", sum, g.TopologyBytes())
	}
}

// TestNodeBytes asserts per-node encoded sizes tile each block exactly.
func TestNodeBytes(t *testing.T) {
	g := randomCSR(t, 64, false, 11)
	for _, bs := range []int{1, 4} {
		c := CompressBlocks(g, bs)
		var sum int64
		for v := 0; v < 64; v++ {
			sum += c.NodeBytes(NodeID(v))
		}
		if sum != int64(len(c.Data)) {
			t.Fatalf("block size %d: node bytes sum %d != data len %d", bs, sum, len(c.Data))
		}
	}
}

// TestNodeByteTable asserts the one-pass table equals NodeBytes row by row,
// block-first and in-block nodes, empty and huge rows, with and without
// weights.
func TestNodeByteTable(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := randomCSR(t, 70, weighted, 17)
		for _, bs := range []int{1, 4, 16} {
			c := CompressBlocks(g, bs)
			table := c.NodeByteTable()
			if len(table) != c.N {
				t.Fatalf("table has %d entries for %d nodes", len(table), c.N)
			}
			for v, got := range table {
				if want := c.NodeBytes(NodeID(v)); got != want {
					t.Fatalf("weighted=%v block size %d node %d: table %d, NodeBytes %d", weighted, bs, v, got, want)
				}
			}
		}
	}
}

// TestCheckScale exercises the 100M+-scale overflow guards.
func TestCheckScale(t *testing.T) {
	if err := CheckScale(150_000_000, 5_000_000_000); err != nil {
		t.Fatalf("valid 150M-node scale rejected: %v", err)
	}
	if err := CheckScale(int64(math.MaxInt32), 0); err == nil {
		t.Fatal("node count beyond int32 id space accepted")
	}
	if err := CheckScale(1000, MaxEdges+1); err == nil {
		t.Fatal("edge count beyond MaxEdges accepted")
	}
	if err := CheckScale(-1, 0); err == nil {
		t.Fatal("negative node count accepted")
	}
}

// TestSortedPreservesPairs asserts Sorted keeps (id, weight) pairs intact.
func TestSortedPreservesPairs(t *testing.T) {
	g := randomCSR(t, 50, true, 13)
	s := g.Sorted()
	if err := s.Validate(); err != nil {
		t.Fatalf("sorted graph invalid: %v", err)
	}
	for v := NodeID(0); int(v) < 50; v++ {
		type pair struct {
			id NodeID
			w  float32
		}
		orig := map[pair]int{}
		for i, u := range g.Neighbors(v) {
			orig[pair{u, g.NeighborWeights(v)[i]}]++
		}
		got := map[pair]int{}
		ids := s.Neighbors(v)
		for i, u := range ids {
			got[pair{u, s.NeighborWeights(v)[i]}]++
			if i > 0 && ids[i-1] > u {
				t.Fatalf("node %d: sorted adjacency out of order", v)
			}
		}
		if !reflect.DeepEqual(orig, got) {
			t.Fatalf("node %d: (id, weight) multiset changed", v)
		}
	}
}
