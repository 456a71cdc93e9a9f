package partition

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// benchFixture is the products graph at a quarter of its size (10 000 nodes,
// ~450 k symmetrized edges) and, under -short, at a sixteenth: CI's bench
// smoke runs every benchmark once and only has to see it work.
func benchFixture(b *testing.B) (*graph.CSR, int) {
	b.Helper()
	shrink := 4
	if testing.Short() {
		shrink = 16
	}
	return gen.Generate(gen.StandardDataset("products", shrink).Config).G, 4
}

// reportEdges reports the rate in symmetrized edges (entries of the finest
// work graph) per second, the unit every phase's cost is linear in.
func reportEdges(b *testing.B, w *workGraph) {
	b.ReportMetric(float64(len(w.adj))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

var benchSink int

// BenchmarkMetis partitions benchFixture and, as papers/k=8, the graph the
// train-cost workload partitions: papers at half size (110 000 nodes, ~6 M
// symmetrized edges), a sixteenth under -short.
func BenchmarkMetis(b *testing.B) {
	b.Run("products/k=4", func(b *testing.B) {
		g, k := benchFixture(b)
		benchMetis(b, g, k)
	})
	b.Run("papers/k=8", func(b *testing.B) {
		shrink := 2
		if testing.Short() {
			shrink = 16
		}
		benchMetis(b, gen.Generate(gen.StandardDataset("papers", shrink).Config).G, 8)
	})
}

func benchMetis(b *testing.B, g *graph.CSR, k int) {
	w, _ := buildWork(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(Metis(g, k, 2023).Parts)
	}
	reportEdges(b, w)
}

func BenchmarkBuildWork(b *testing.B) {
	g, _ := benchFixture(b)
	var w *workGraph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ = buildWork(g)
	}
	reportEdges(b, w)
}

// BenchmarkCoarsen contracts the finest level once: matching plus contraction.
func BenchmarkCoarsen(b *testing.B) {
	g, _ := benchFixture(b)
	w, s := buildWork(g)
	r := rng.New(2023)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, coarse := w.coarsen(s, r)
		benchSink += coarse.n
	}
	reportEdges(b, w)
}

// BenchmarkRefine refines the finest level from a finished partition with one
// node in twenty thrown into a random part, as in Metis's last and most
// expensive call: a table build, then up to four passes of O(k) gain reads for
// every node, nearly all of them on the boundary, and a few thousand moves.
func BenchmarkRefine(b *testing.B) {
	g, k := benchFixture(b)
	w, s := buildWork(g)
	s.conn = make([]int64, w.n*k)
	r := rng.New(2023)
	start := Metis(g, k, 2023).Parts
	for v := range start {
		if r.Intn(20) == 0 {
			start[v] = int32(r.Intn(k))
		}
	}
	parts := make([]int32, w.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(parts, start)
		w.refine(parts, k, 4, s, r)
	}
	reportEdges(b, w)
}
