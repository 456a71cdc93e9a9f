package graph

import (
	"encoding/binary"
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
// identical per-node Neighbors views versus the canonical sorted flat CSR.
func TestCompressedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n        int
		weighted bool
		seed     uint64
	}{
		{1, false, 1},
		{17, false, 2},
		{64, false, 3},
		{64, true, 4},
		{200, true, 5},
		{333, false, 6},
	} {
		g := randomCSR(t, tc.n, tc.weighted, tc.seed)
		want := g.Sorted()
		c := Compress(g)
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

// TestRangeBytes asserts the per-range accounting tiles the whole graph
// over arbitrary splits, empty ranges included.
func TestRangeBytes(t *testing.T) {
	g := randomCSR(t, 96, true, 9)
	c := Compress(g)
	r := rng.New(19)
	for _, step := range []int{1, 7, 32, 96} {
		var sum int64
		for lo := 0; lo < 96; {
			hi := min(lo+r.Intn(step+1), 96)
			sum += c.RangeBytes(NodeID(lo), NodeID(hi))
			lo = hi
		}
		if sum != c.TopologyBytes() {
			t.Fatalf("step %d: range bytes sum %d != topology bytes %d", step, sum, c.TopologyBytes())
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

// refNodeBytes sizes every encoded row, and reads its degree, by one linear
// varint walk over Data, independent of the offset tables.
func refNodeBytes(c *CompressedCSR) (size, deg []int64) {
	size, deg = make([]int64, c.N), make([]int64, c.N)
	var pos int64
	for v := range size {
		start := pos
		d, k := binary.Uvarint(c.Data[pos:])
		for i := uint64(0); k > 0 && i < d; i++ {
			pos += int64(k)
			_, k = binary.Uvarint(c.Data[pos:])
		}
		if k <= 0 {
			panic("graph: corrupt compressed adjacency")
		}
		pos += int64(k)
		size[v], deg[v] = pos-start, int64(d)
	}
	return size, deg
}

// TestNodeBytes asserts per-node encoded sizes tile Data exactly.
func TestNodeBytes(t *testing.T) {
	c := Compress(randomCSR(t, 64, false, 11))
	var sum int64
	for v := 0; v < 64; v++ {
		sum += c.NodeBytes(NodeID(v))
	}
	if sum != int64(len(c.Data)) {
		t.Fatalf("node bytes sum %d != data len %d", sum, len(c.Data))
	}
}

// TestNodeByteTable asserts the per-node tables equal the varint walk row by
// row: Offsets and NodeBytes give each row's byte span, EdgeOff and Degree
// its edge count, for empty and huge rows, with and without weights.
func TestNodeByteTable(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		c := Compress(randomCSR(t, 70, weighted, 17))
		if len(c.Offsets) != c.N+1 || len(c.EdgeOff) != c.N+1 {
			t.Fatalf("weighted=%v: %d offsets, %d edge offsets for %d nodes", weighted, len(c.Offsets), len(c.EdgeOff), c.N)
		}
		size, deg := refNodeBytes(c)
		var pos int64
		for v := range size {
			if c.Offsets[v] != pos {
				t.Fatalf("weighted=%v node %d: offset %d, varint walk %d", weighted, v, c.Offsets[v], pos)
			}
			if got := c.NodeBytes(NodeID(v)); got != size[v] {
				t.Fatalf("weighted=%v node %d: NodeBytes %d, varint walk %d", weighted, v, got, size[v])
			}
			if got := c.Degree(NodeID(v)); int64(got) != deg[v] {
				t.Fatalf("weighted=%v node %d: Degree %d, varint walk %d", weighted, v, got, deg[v])
			}
			pos += size[v]
		}
		if c.Offsets[c.N] != int64(len(c.Data)) || c.EdgeOff[c.N] != c.Edges {
			t.Fatalf("weighted=%v: sentinels %d/%d, want %d/%d", weighted, c.Offsets[c.N], c.EdgeOff[c.N], len(c.Data), c.Edges)
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
