package featstore

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The featstore slice of the per-package ledger: ns/op, allocs/op and rows/s
// of Split on a 4-GPU partitioned cache, beside the append loop it replaced
// ("ref"), so one process gives both sides of the comparison, and of the
// one-pass Tally the loader runs (counts and the host list):
//
//	go test -run '^$' -bench . -benchmem ./internal/featstore/
func BenchmarkSplit(b *testing.B) {
	f := build(b, 4)
	n := f.g.NumNodes()
	// A quarter of each GPU's rows cached: every tier is populated.
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, int64(n/16)*int64(f.d.FeatDim*4), ByDegree)
	r := rng.New(5)
	ids := make([]graph.NodeID, 8192)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(n))
	}
	for _, impl := range []struct {
		name string
		fn   func(ids []graph.NodeID, g int) ([]graph.NodeID, [][]graph.NodeID, []graph.NodeID)
	}{{"exact", s.Split}, {"ref", func(ids []graph.NodeID, g int) ([]graph.NodeID, [][]graph.NodeID, []graph.NodeID) {
		return refSplit(s, ids, g)
	}}} {
		b.Run(fmt.Sprintf("rows=%d/%s", len(ids), impl.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.fn(ids, i%4)
			}
			b.ReportMetric(float64(len(ids))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
	// Tally is the loader's split: the same classification, counts and the
	// host list only.
	b.Run(fmt.Sprintf("rows=%d/tally", len(ids)), func(b *testing.B) {
		b.ReportAllocs()
		counts := make([]int, s.NumGPUs+1)
		host := make([]graph.NodeID, len(ids))
		for i := 0; i < b.N; i++ {
			s.Tally(ids, i%4, counts, nil, host)
		}
		b.ReportMetric(float64(len(ids))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}
