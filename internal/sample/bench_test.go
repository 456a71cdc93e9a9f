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

// adjacencyCases are the two adjacency arrays the draw benchmarks read rows
// from: 256 KB, which stays in L2, so the draw's own instructions show; and
// 64 MB (1 MB under -short), far larger than the last-level cache, so every
// neighbour read misses, as on the full-size graphs.
func adjacencyCases() []struct {
	name    string
	entries int
} {
	large := 16 << 20
	if testing.Short() {
		large = 256 << 10
	}
	return []struct {
		name    string
		entries int
	}{{"L2", 64 << 10}, {"mem", large}}
}

// rowStarts places rows of degree d at random offsets of an entries-long
// adjacency array.
func rowStarts(entries, d, rows int) []int {
	starts := make([]int, rows)
	gen := rng.New(uint64(d))
	for i := range starts {
		starts[i] = gen.Intn(entries - d)
	}
	return starts
}

// identity returns the adjacency array 0, 1, …, n−1.
func identity(n int) []graph.NodeID {
	adjacency := make([]graph.NodeID, n)
	for i := range adjacency {
		adjacency[i] = graph.NodeID(i)
	}
	return adjacency
}

// BenchmarkUniform draws from rows scattered over each adjacency array. In
// memory, reading the k neighbours back to back instead of one per step is
// what pays; in L2 the draw is bound by its instructions — the seeding, the
// Lemire chain and the replacement scan — not by the reads.
func BenchmarkUniform(b *testing.B) {
	const rows = 1 << 12
	for _, size := range adjacencyCases() {
		adjacency := identity(size.entries)
		for _, d := range []int{8, 32, 256} {
			starts := rowStarts(size.entries, d, rows)
			for _, k := range []int{5, 15} {
				for _, impl := range []struct {
					name string
					fn   func(*rng.RNG, []graph.NodeID, int, []graph.NodeID) []graph.NodeID
				}{{"gather", Uniform}, {"ref", refUniform}} {
					b.Run(fmt.Sprintf("adj=%s/d=%d/k=%d/%s", size.name, d, k, impl.name), func(b *testing.B) {
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
}

// BenchmarkDrawRows draws 4 096 node-wise uniform rows (d = 40, k = 15, one
// layer seed, distinct node ids) through Rows, whose AVX2 body ("kernel")
// draws eight rows a pass, beside the portable per-row DrawAdj ("portable"),
// in one process. The kernel row must report 0 allocs/op.
func BenchmarkDrawRows(b *testing.B) {
	const rows, d, k = 1 << 12, 40, 15
	probed := useAVX2
	b.Cleanup(func() { useAVX2 = probed })
	for _, size := range adjacencyCases() {
		adjacency := identity(size.entries)
		starts := rowStarts(size.entries, d, rows)
		out := make([]graph.NodeID, rows*k)
		for _, body := range []struct {
			name string
			avx2 bool
		}{{"kernel", true}, {"portable", false}} {
			if body.avx2 && !probed {
				continue
			}
			b.Run(fmt.Sprintf("adj=%s/d=%d/k=%d/%s", size.name, d, k, body.name), func(b *testing.B) {
				useAVX2 = body.avx2
				var r Rows
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j, s := range starts {
						r.Add(adjacency[s:s+d], graph.NodeID(j), uint64(i), k, out[j*k:])
					}
					r.Flush()
				}
				edges := float64(rows * k)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(edges*float64(b.N)), "ns/edge")
				reportRate(b, rows*k, "edges/s")
			})
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
