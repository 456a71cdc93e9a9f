package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// The store slice of the per-package ledger: ns/op, allocs/op and ids/s of
// FeatureBlocks, the loader's once-per-Load listing of the feature blocks
// behind its host rows, on a products-like feature tier of 40 960 rows in
// ten blocks of 4 096:
//
//	go test -run '^$' -bench . -benchmem ./internal/store/
//
// "spread" draws 6 000 host rows from every block, so the scan stops once
// all ten are listed; "two-blocks" draws them from two, so it reads every id.
func BenchmarkFeatureBlocks(b *testing.B) {
	const rows, blockNodes, hostRows = 40960, 4096, 6000
	s, err := New(sim.NewEngine(), uniformCSR(rows, 2), rows, 400, Config{BlockNodes: blockNodes})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name string
		span int
	}{{"spread", rows}, {"two-blocks", 2 * blockNodes}} {
		ids := make([]graph.NodeID, hostRows)
		for i := range ids {
			ids[i] = graph.NodeID(r.Intn(c.span))
		}
		b.Run(fmt.Sprintf("%s/ids=%d", c.name, len(ids)), func(b *testing.B) {
			var bs []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bs = s.FeatureBlocks(bs[:0], ids)
			}
			b.ReportMetric(float64(len(ids))*float64(b.N)/b.Elapsed().Seconds(), "ids/s")
		})
	}
}
