package sample

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The sample slice of the per-package ledger: ns/op, allocs/op and a domain
// rate for the neighbour-draw kernel, block assembly and the whole reference
// sampler. BenchmarkUniform times the loop it replaced beside it ("ref"), so
// one process gives both sides of the comparison:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/sample/

// reportRate turns a per-iteration item count into the domain rate.
func reportRate(b *testing.B, perOp int64, unit string) {
	b.ReportMetric(float64(perOp)*float64(b.N)/b.Elapsed().Seconds(), unit)
}

// BenchmarkUniform draws from rows scattered over an adjacency array far
// larger than the last-level cache (64 MB; 1 MB under -short), so every
// neighbour read misses, as on the full-size graphs — which is where reading
// the k neighbours back to back instead of one per step pays.
func BenchmarkUniform(b *testing.B) {
	entries := 16 << 20
	if testing.Short() {
		entries = 256 << 10
	}
	adjacency := make([]graph.NodeID, entries)
	for i := range adjacency {
		adjacency[i] = graph.NodeID(i)
	}
	const rows = 1 << 12
	for _, d := range []int{8, 32, 256} {
		starts := make([]int, rows)
		gen := rng.New(uint64(d))
		for i := range starts {
			starts[i] = gen.Intn(entries - d)
		}
		for _, k := range []int{5, 15} {
			for _, impl := range []struct {
				name string
				fn   func(*rng.RNG, []graph.NodeID, int, []graph.NodeID) []graph.NodeID
			}{{"gather", Uniform}, {"ref", refUniform}} {
				b.Run(fmt.Sprintf("d=%d/k=%d/%s", d, k, impl.name), func(b *testing.B) {
					out := make([]graph.NodeID, 0, rows*k)
					var r rng.RNG
					var edges int64
					for i := 0; i < b.N; i++ {
						out = out[:0]
						for j, s := range starts {
							r.Seed(uint64(j))
							out = impl.fn(&r, adjacency[s:s+d], k, out)
						}
						edges = int64(len(out))
					}
					reportRate(b, edges, "edges/s")
				})
			}
		}
	}
}

// BenchmarkWeighted draws biased neighbour sets without replacement, one
// call per op over 1 024 rows of degree d, beside the loop it replaced
// ("ref"), which allocated a key slice of size d on every call. The "keys"
// rows must report 0 allocs/op.
func BenchmarkWeighted(b *testing.B) {
	const rows = 1 << 10
	for _, d := range []int{32, 256} {
		adjacency := make([]graph.NodeID, rows*d)
		weights := make([]float32, rows*d)
		gen := rng.New(uint64(d))
		for i := range adjacency {
			adjacency[i] = graph.NodeID(gen.Intn(1 << 20))
			weights[i] = float32(gen.Float64()) + 1e-3
		}
		for _, k := range []int{5, 15} {
			var keys Keys
			for _, impl := range []struct {
				name string
				fn   func(*rng.RNG, []graph.NodeID, []float32, int, []graph.NodeID) []graph.NodeID
			}{{"keys", func(r *rng.RNG, adj []graph.NodeID, w []float32, k int, out []graph.NodeID) []graph.NodeID {
				return Weighted(r, adj, w, k, out, &keys)
			}}, {"ref", refWeighted}} {
				b.Run(fmt.Sprintf("d=%d/k=%d/%s", d, k, impl.name), func(b *testing.B) {
					out := make([]graph.NodeID, 0, k)
					var r rng.RNG
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						j := i % rows
						r.Seed(uint64(j))
						out = impl.fn(&r, adjacency[j*d:(j+1)*d], weights[j*d:(j+1)*d], k, out[:0])
					}
					reportRate(b, int64(k), "edges/s")
				})
			}
		}
	}
}

// benchBatch is a three-layer batch at the benchmark's fan-out on a graph
// small enough to generate in a bench smoke run.
func benchBatch() (*gen.Dataset, []graph.NodeID, Config) {
	d := gen.Generate(gen.Config{
		Name: "b", Nodes: 20000, AvgDegree: 20, FeatDim: 4, NumClasses: 6, Seed: 5,
	})
	return d, d.TrainIdx[:256], Config{Fanout: []int{15, 10, 5}}
}

// BenchmarkBuildBlock rebuilds a sampled batch's blocks from their raw
// (dst, counts, samples) form with the reusable Deduper.
func BenchmarkBuildBlock(b *testing.B) {
	d, seeds, cfg := benchBatch()
	mb := Reference(d.G, seeds, cfg, 7)
	counts := make([][]int32, len(mb.Blocks))
	var nodes int64
	for l, blk := range mb.Blocks {
		counts[l] = make([]int32, len(blk.Dst))
		for i := range counts[l] {
			counts[l][i] = blk.SrcPtr[i+1] - blk.SrcPtr[i]
		}
		nodes += int64(len(blk.Src))
	}
	dedup := NewDeduper(d.G.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l, blk := range mb.Blocks {
			dedup.BuildBlock(blk.Dst, counts[l], blk.Src)
		}
	}
	reportRate(b, nodes, "nodes/s")
}

// BenchmarkReference samples whole batches on one address space, the way the
// baselines and the benchmark's replay drive the package.
func BenchmarkReference(b *testing.B) {
	d, seeds, cfg := benchBatch()
	dedup := NewDeduper(d.G.NumNodes())
	edges := ReferenceInto(dedup, d.G, seeds, cfg, 7).NumSampledEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReferenceInto(dedup, d.G, seeds, cfg, uint64(i))
	}
	reportRate(b, edges, "edges/s")
}
