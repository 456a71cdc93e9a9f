package graph

import (
	"slices"
	"testing"
)

// FuzzCompressRoundTrip: the compressed encoding's panic is an invariant (a
// compressed CSR never crosses a trust boundary), so any flat CSR — empty
// rows, repeated neighbours, ids that need multi-byte varints, optional
// weights — must come back from Compress row for row as its Sorted form.
//
//	go test ./internal/graph/ -run '^$' -fuzz FuzzCompressRoundTrip -fuzztime 30s
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add(uint16(5), false, []byte{1, 1, 4, 0xff, 0xff, 3, 0, 3})
	f.Add(uint16(300), true, []byte{200, 7, 7, 199, 0xff, 250, 1, 0xff, 0xff, 9})
	f.Add(uint16(1), true, []byte{})
	f.Fuzz(func(t *testing.T, nodes uint16, weighted bool, data []byte) {
		n := 1 + int(nodes)%1000
		// Each byte is a neighbour of the current row, or 0xff: the row
		// ends. Ids are spread over [0, n) so gaps reach two varint bytes.
		g := &CSR{Indptr: make([]int64, 1, n+1)}
		for _, b := range data {
			if b == 0xff {
				if len(g.Indptr) <= n {
					g.Indptr = append(g.Indptr, int64(len(g.Indices)))
				}
				continue
			}
			if len(g.Indptr) > n {
				break
			}
			g.Indices = append(g.Indices, NodeID(int(b)*131%n))
			if weighted {
				g.Weights = append(g.Weights, float32(b%16)/4)
			}
		}
		for len(g.Indptr) <= n {
			g.Indptr = append(g.Indptr, int64(len(g.Indices)))
		}
		if weighted && g.Weights == nil {
			g.Weights = []float32{}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("fuzz graph invalid: %v", err)
		}
		want := g.Sorted()
		c := Compress(g)
		if c.NumNodes() != n || c.NumEdges() != want.NumEdges() || c.Weighted() != weighted {
			t.Fatalf("%d nodes, %d edges, weighted %v; want %d, %d, %v",
				c.NumNodes(), c.NumEdges(), c.Weighted(), n, want.NumEdges(), weighted)
		}
		for v := NodeID(0); int(v) < n; v++ {
			if got, exp := c.Neighbors(v), want.Neighbors(v); !slices.Equal(got, exp) || c.Degree(v) != len(exp) {
				t.Fatalf("node %d: neighbours %v (degree %d), want %v", v, got, c.Degree(v), exp)
			}
			if got, exp := c.NeighborWeights(v), want.NeighborWeights(v); !slices.Equal(got, exp) {
				t.Fatalf("node %d: weights %v, want %v", v, got, exp)
			}
		}
	})
}
