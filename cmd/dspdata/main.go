// Command dspdata generates, partitions and stores datasets on disk — the
// equivalent of the paper artifact's preprocessing step ("partition.sh
// products 4 ... The partitioned graph is stored under /data/ds/"). The
// saved .dspd file carries the layout-ordered graph, features, labels,
// per-GPU seed shards and the memory-scaling metadata, and can be loaded by
// dsptrain via -data.
//
// Usage:
//
//	dspdata -dataset papers -gpus 8 -out papers-8.dspd
//	dspdata -inspect papers-8.dspd
//	dspdata -preview papers-8.dspd -skew 1.2 -drift-every 0.1   # serving workload preview
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cliopts"
	"repro/internal/featstore"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/train"
)

func main() {
	var (
		dsName  = flag.String("dataset", "products", "dataset: products, papers, friendster")
		gpus    = flag.Int("gpus", 4, "number of patches (1-8)")
		shrink  = flag.Int("shrink", 4, "dataset shrink divisor")
		out     = flag.String("out", "", "output path (default <dataset>-<gpus>.dspd)")
		hash    = flag.Bool("hash", false, "hash partitioning instead of METIS")
		inspect = flag.String("inspect", "", "print a stored file's summary and exit")
		preview = flag.String("preview", "", "preview the serving workload of a stored file and exit")
		skew    = flag.Float64("skew", 0.8, "preview: power-law popularity exponent")
		drift   = flag.Float64("drift-every", 0, "preview: popularity re-draw period in virtual seconds (0 = static)")
		draws   = flag.Int("draws", 20000, "preview: samples per phase")
		phases  = flag.Int("phases", 3, "preview: number of drift phases to sample")
		seed    = flag.Uint64("seed", 13, "partitioner (or preview) seed")
	)
	graphOpts := cliopts.RegisterGraph(flag.CommandLine)
	flag.Parse()

	if *preview != "" {
		td, err := graphio.LoadFile(*preview)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dspdata: %v\n", err)
			os.Exit(1)
		}
		previewMemory(td.G)
		previewFeatureLayouts(td)
		previewWorkload(td, *skew, sim.Time(*drift), *draws, *phases, *seed)
		return
	}

	if *inspect != "" {
		td, err := graphio.LoadFile(*inspect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dspdata: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d nodes, %d adjacency entries, dim %d, %d classes\n",
			td.Name, td.G.NumNodes(), td.G.NumEdges(), td.FeatDim, td.NumClasses)
		fmt.Printf("patches: %d, scale factor %.0fx, GPU mem %.1f MB, bench batch %d\n",
			td.NumGPUs(), td.ScaleFactor, float64(td.GPUMemBytes)/(1<<20), td.BenchBatch)
		for g, s := range td.Shards {
			lo, hi := td.Offsets[g], td.Offsets[g+1]
			fmt.Printf("  patch %d: nodes [%d,%d), %d seeds\n", g, lo, hi, len(s))
		}
		return
	}

	td, err := train.StandardData(*dsName, *gpus, *shrink, *seed, !*hash, func(std gen.Standard) *gen.Dataset {
		fmt.Printf("generating %s (%d nodes)...\n", std.Config.Name, std.Config.Nodes)
		d := gen.Generate(std.Config)
		fmt.Printf("partitioning into %d patches (metis=%v)...\n", *gpus, !*hash)
		return d
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dspdata: %v\n", err)
		os.Exit(2)
	}
	if graphOpts.Compress {
		previewMemory(td.G)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%d.dspd", *dsName, *gpus)
	}
	if err := graphio.SaveFile(path, td); err != nil {
		fmt.Fprintf(os.Stderr, "dspdata: %v\n", err)
		os.Exit(1)
	}
	info, _ := os.Stat(path)
	fmt.Printf("wrote %s (%.1f MB)\n", path, float64(info.Size())/(1<<20))
}

// previewMemory prints the flat-vs-compressed topology storage estimate: what
// the adjacency costs as raw CSR versus delta-sorted varint blocks, so an
// operator can judge whether -graph-compress (or the -ooc tier) pays off
// before committing to a training run.
func previewMemory(g *graph.CSR) {
	flat := g.TopologyBytes()
	comp := graph.Compress(g).TopologyBytes()
	ratio := float64(flat) / float64(comp)
	fmt.Printf("topology: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("  flat CSR       %8.1f MB\n", float64(flat)/(1<<20))
	fmt.Printf("  compressed     %8.1f MB  (%.2fx smaller, delta-sorted varint)\n",
		float64(comp)/(1<<20), ratio)
}

// previewFeatureLayouts prints the per-GPU resident feature bytes under the
// two execution-strategy layouts — row partition (-strategy dsp: each GPU
// holds its patch's rows at full width) versus dimension slices (-strategy
// p3: each GPU holds every row of an F/world column slice) — so an operator
// can see which layout fits the fleet before picking a strategy.
func previewFeatureLayouts(td *train.Data) {
	n := td.NumGPUs()
	fmt.Printf("feature layouts: %d rows x dim %d (%.1f MB total)\n",
		td.G.NumNodes(), td.FeatDim,
		float64(td.G.NumNodes())*float64(td.RowBytes())/(1<<20))
	ds := featstore.BuildDimSliced(td.G.NumNodes(), td.Features, td.FeatDim, n)
	for g := 0; g < n; g++ {
		rows := int64(td.Offsets[g+1] - td.Offsets[g])
		rowBytes := rows * int64(td.RowBytes())
		fmt.Printf("  gpu%d: rows [%d,%d) %8.1f MB row-partitioned (dsp)  |  %d cols %8.1f MB dim-sliced (p3)\n",
			g, td.Offsets[g], td.Offsets[g+1], float64(rowBytes)/(1<<20),
			ds.SliceDim(g), float64(ds.CacheBytes(g))/(1<<20))
	}
}

// previewWorkload samples the serving popularity distribution per drift phase
// and prints how concentrated the traffic is (share of draws hitting the top
// 1% of nodes) and how it lands across the patches — the numbers that decide
// whether a static cache placement can hold up or the adaptive rebalancer has
// work to do.
func previewWorkload(td *train.Data, skew float64, drift sim.Time, draws, phases int, seed uint64) {
	w := serve.NewWorkload(td, skew, drift, seed)
	if drift <= 0 {
		phases = 1
	}
	n := td.G.NumNodes()
	top := n / 100
	if top < 1 {
		top = 1
	}
	fmt.Printf("workload preview: skew %.2f, drift every %gs, %d draws per phase\n",
		skew, float64(drift), draws)
	for ph := 0; ph < phases; ph++ {
		now := (sim.Time(ph) + 0.5) * drift
		r := rng.New(rng.Mix(seed, uint64(ph), 0x9E37))
		freq := make(map[graph.NodeID]int, draws)
		perGPU := make([]int, td.NumGPUs())
		for i := 0; i < draws; i++ {
			v := w.Draw(r, now)
			freq[v]++
			// v's patch owner: offsets[g] <= v < offsets[g+1].
			g := sort.Search(len(perGPU), func(g int) bool { return td.Offsets[g+1] > int64(v) })
			perGPU[g]++
		}
		counts := make([]int, 0, len(freq))
		for _, c := range freq {
			counts = append(counts, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		hot := 0
		for i := 0; i < len(counts) && i < top; i++ {
			hot += counts[i]
		}
		fmt.Printf("  phase %d: %d distinct nodes, top-1%% share %.1f%%, per-patch", ph, len(freq),
			100*float64(hot)/float64(draws))
		for g, c := range perGPU {
			fmt.Printf("  p%d %.0f%%", g, 100*float64(c)/float64(draws))
		}
		fmt.Println()
	}
}
