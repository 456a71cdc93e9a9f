package cache

import (
	"fmt"
	"testing"

	"repro/internal/featstore"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// The cache slice of the per-package ledger: ns/op, allocs/op and rows/s of
// Manager.Tally, the loader's per-batch split, on 4 GPUs over 40 000 rows of
// 400 bytes with a 1 MiB cache per GPU (about a quarter of each GPU's rows
// cached, so every tier is read), under the static placement, which tracks
// nothing, and lfu-decay, which counts every requested row:
//
//	go test -run '^$' -bench . -benchmem ./internal/cache/
func BenchmarkTally(b *testing.B) {
	const nGPU, rows, dim = 4, 40000, 100
	d := gen.Generate(gen.Config{
		Name: "b", Nodes: rows, AvgDegree: 10, FeatDim: dim, NumClasses: 4, Seed: 5,
	})
	ren := partition.BuildRenumbering(partition.Metis(d.G, nGPU, 5))
	g := ren.ApplyToGraph(d.G)
	// Tally reads placement only, never a feature value.
	s := featstore.BuildPartitioned(g, nil, dim, ren.Offsets, 1<<20, featstore.ByDegree)
	r := rng.New(5)
	ids := make([]graph.NodeID, 8192)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(rows))
	}
	for _, policy := range []Policy{Static, LFUDecay} {
		b.Run(fmt.Sprintf("%v/rows=%d", policy, len(ids)), func(b *testing.B) {
			m := New(s, g, ren.Offsets, Config{Policy: policy})
			counts := make([]int, nGPU+1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Tally(ids, i%nGPU, counts, false)
			}
			b.ReportMetric(float64(len(ids))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
