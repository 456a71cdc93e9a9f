package csp

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/sim"
)

// The csp slice of the per-package ledger: one collective mini-batch on eight
// ranks at the benchmark's fan-out, as ns/op, allocs/op and sampled edges/s.
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/csp/

// BenchmarkSampleBatch times whole collective batches (one op = all eight
// ranks sampling 128 seeds each, three layers) in steady state: the world has
// sampled once before the clock starts, and each rank releases its batch to
// the world as the trainer and the server do, so the next is rebuilt in its
// arrays and allocs/op is what the warm round itself leaves — a draw unit's
// ticket per rank and layer, the seed exchange and what a buffer outgrows.
// It runs on two graphs: 40 000 nodes, whose adjacency (3 MB) sits in the
// last-level cache, and 400 000 nodes (32 MB), far larger than L2, where the
// order the owners read rows in shows. -short runs the small one only.
func BenchmarkSampleBatch(b *testing.B) {
	for _, nodes := range []int{40000, 400000} {
		if testing.Short() && nodes > 40000 {
			continue
		}
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) { benchSampleBatch(b, nodes) })
	}
}

func benchSampleBatch(b *testing.B, nodes int) {
	const nGPU = 8
	d := gen.Generate(gen.Config{
		Name: "b", Nodes: nodes, AvgDegree: 20, FeatDim: 4, NumClasses: 6, Seed: 5,
	})
	ren := partition.BuildRenumbering(partition.Metis(d.G, nGPU, 5))
	m := hw.NewMachine(nGPU, hw.V100(), hw.XeonE5())
	w, err := NewWorld(m, ren.ApplyToGraph(d.G), ren.Offsets)
	if err != nil {
		b.Fatal(err)
	}
	train := ren.ApplyToIDs(d.TrainIdx)
	seeds := make([][]graph.NodeID, nGPU)
	for r := range seeds {
		seeds[r] = ren.SortOwned(train, r)
		seeds[r] = seeds[r][:min(128, len(seeds[r]))]
	}
	cfg := sample.Config{Fanout: []int{15, 10, 5}}
	var edges int64
	run := func(batches int) {
		edges = 0
		for r := 0; r < nGPU; r++ {
			m.Eng.Go(fmt.Sprintf("sampler%d", r), func(p *sim.Proc) {
				for i := 0; i < batches; i++ {
					mb := w.SampleBatch(p, r, seeds[r], cfg, rng.Mix(uint64(i), uint64(r)))
					edges += mb.NumSampledEdges()
					w.Release(r, mb)
				}
			})
		}
		if _, err := m.Eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run(1)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
}
