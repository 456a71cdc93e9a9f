package cache

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/featstore"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The cache slice of the per-package ledger, on 4 GPUs over 40 000 rows of
// 400 bytes with a 1 MiB cache per GPU (about a quarter of each GPU's rows
// cached, so every tier is read):
//
//	go test -run '^$' -bench . -benchmem ./internal/cache/
//
// benchFixture is that store over a METIS layout, with 8 192 requested rows
// drawn uniformly.
func benchFixture(b *testing.B) (*featstore.Store, *graph.CSR, []int64, []graph.NodeID) {
	const nGPU, rows, dim = 4, 40000, 100
	d := gen.Generate(gen.Config{
		Name: "b", Nodes: rows, AvgDegree: 10, FeatDim: dim, NumClasses: 4, Seed: 5,
	})
	ren := partition.BuildRenumbering(partition.Metis(d.G, nGPU, 5))
	g := ren.ApplyToGraph(d.G)
	// Tally and Rebalance read placement only, never a feature value.
	s := featstore.BuildPartitioned(g, nil, dim, ren.Offsets, 1<<20, featstore.ByDegree)
	r := rng.New(5)
	ids := make([]graph.NodeID, 8192)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(rows))
	}
	return s, g, ren.Offsets, ids
}

// BenchmarkTally: ns/op, allocs/op and rows/s of Manager.Tally, the loader's
// one-pass split, which lists the host rows (about three quarters of them)
// into a reused buffer: under the static placement, which tracks nothing;
// under lfu-decay, which counts every requested row; and under lfu-decay
// with a dead holder, whose rows take the reroute's extra pass.
func BenchmarkTally(b *testing.B) {
	s, g, offsets, ids := benchFixture(b)
	for _, c := range []struct {
		policy Policy
		dead   bool
	}{{Static, false}, {LFUDecay, false}, {LFUDecay, true}} {
		name := fmt.Sprintf("%v/rows=%d", c.policy, len(ids))
		if c.dead {
			name += "/dead-holder"
		}
		b.Run(name, func(b *testing.B) {
			m := New(s, g, offsets, Config{Policy: c.policy})
			if c.dead {
				view := fault.NewView(s.NumGPUs)
				view.Kill(1)
				m.SetView(view)
			}
			counts := make([]int, s.NumGPUs+1)
			var host []graph.NodeID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				host = m.Tally(ids, i%s.NumGPUs, counts, host)
			}
			b.ReportMetric(float64(len(ids))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkRebalance: ns/op and rows/s (rows ranked, every GPU's range) of
// one lfu-decay Manager.Rebalance pass after a round of Tallies, each pass
// in its own simulation run. Promotions are capped at MaxMovesPerGPU, so
// the ranking is what scales with the rows.
func BenchmarkRebalance(b *testing.B) {
	s, g, offsets, ids := benchFixture(b)
	m := New(s, g, offsets, Config{Policy: LFUDecay})
	counts := make([]int, s.NumGPUs+1)
	var host []graph.NodeID
	rows := offsets[len(offsets)-1] - offsets[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for q := 0; q < s.NumGPUs; q++ {
			host = m.Tally(ids[q*len(ids)/s.NumGPUs:(q+1)*len(ids)/s.NumGPUs], q, counts, host)
		}
		mach := hw.NewMachine(s.NumGPUs, hw.V100(), hw.XeonE5())
		b.StartTimer()
		mach.Eng.Go("rebalance", func(p *sim.Proc) { m.Rebalance(p, mach.Fabric) })
		if _, err := mach.Eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
