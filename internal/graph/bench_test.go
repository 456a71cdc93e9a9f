package graph

import (
	"testing"

	"repro/internal/rng"
)

// sink keeps the benchmark's reads from being optimised away.
var sink NodeID

// The graph slice of the per-package ledger: adjacency reads from the flat
// CSR and from its varint encoding, one op per row, as ns/op, allocs/op and
// edges/s. Rows are read in a random node order, as a sampling frontier
// reads them, on a graph far larger than L2 (4 096 nodes under -short).
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/graph/
func BenchmarkCompressedNeighbors(b *testing.B) {
	n := 1 << 18
	if testing.Short() {
		n = 1 << 12
	}
	// Community-local rows (most neighbours within a few hundred ids, the
	// small gaps the encoding is for) of degree 4..28 with a random tail.
	r := rng.New(3)
	var src, dst []NodeID
	for v := 0; v < n; v++ {
		for k := 4 + r.Intn(25); k > 0; k-- {
			u := (v + r.Intn(512)) % n
			if r.Intn(8) == 0 {
				u = r.Intn(n)
			}
			src, dst = append(src, NodeID(u)), append(dst, NodeID(v))
		}
	}
	g := FromEdges(n, src, dst).Sorted()
	order := r.Perm(n)
	for _, tc := range []struct {
		name string
		t    Topology
	}{{"flat", g}, {"compressed", Compress(g)}} {
		b.Run(tc.name, func(b *testing.B) {
			var edges int64
			var sum NodeID // every id is read, as a sampler reads them
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row := tc.t.Neighbors(NodeID(order[i%n]))
				for _, u := range row {
					sum += u
				}
				edges += int64(len(row))
			}
			b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
			sink = sum
		})
	}
}
