// Command dsppart partitions a synthetic graph the way DSP's data layout
// does and reports quality metrics: edge cut, balance, and the locality a
// GPU would see during collective sampling, for both the METIS-style
// multilevel partitioner and the hash baseline.
//
// Usage:
//
//	dsppart -dataset papers -gpus 8
//	dsppart -nodes 50000 -degree 20 -gpus 4
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// customClasses is the community count of a custom (-nodes/-degree) graph.
const customClasses = 16

// maxEdges caps a custom graph's generated edges, -nodes × -degree (at least
// one edge per node): about five times friendster-sim at -shrink 1, the
// largest standard graph. Partitioning holds ~50 bytes per edge.
const maxEdges = 1 << 25

// maxGPUs caps -gpus at eight times the largest patch count any experiment
// uses (8, one DGX-1): refinement keeps a nodes × gpus table of int64.
const maxGPUs = 64

func main() {
	var (
		dsName = flag.String("dataset", "", "standard dataset (products, papers, friendster); empty = custom")
		nodes  = flag.Int("nodes", 20000, "custom graph node count")
		degree = flag.Float64("degree", 16, fmt.Sprintf("custom graph average degree (-nodes × -degree at most %d edges)", maxEdges))
		gpus   = flag.Int("gpus", 4, fmt.Sprintf("number of patches, 1 to %d (experiments use up to 8; refinement holds nodes × gpus int64)", maxGPUs))
		shrink = flag.Int("shrink", 4, "standard dataset shrink divisor")
		seed   = flag.Uint64("seed", 1, "partitioner seed")
	)
	flag.Parse()
	switch {
	case *dsName != "" && !slices.Contains(gen.StandardNames, *dsName):
		usageError("unknown dataset %q (want %s)", *dsName, strings.Join(gen.StandardNames, ", "))
	case *gpus < 1 || *gpus > maxGPUs:
		usageError("-gpus must be between 1 and %d, got %d", maxGPUs, *gpus)
	case *nodes < customClasses:
		usageError("-nodes must be at least %d (one per generated community), got %d", customClasses, *nodes)
	case !(*degree > 0) || math.IsInf(*degree, 1):
		usageError("-degree must be positive and finite, got %v", *degree)
	case float64(*nodes)*max(*degree, 1) > maxEdges:
		usageError("-nodes %d × -degree %v is above the cap of %d edges", *nodes, *degree, maxEdges)
	case *shrink < 1:
		usageError("-shrink must be at least 1, got %d", *shrink)
	}

	var d *gen.Dataset
	if *dsName != "" {
		std := gen.StandardDataset(*dsName, *shrink)
		if std.Config.Nodes < std.Config.NumClasses {
			usageError("-shrink %d leaves %s %d nodes for its %d communities", *shrink, *dsName, std.Config.Nodes, std.Config.NumClasses)
		}
		fmt.Printf("dataset %s: %d nodes, avg degree %.1f\n", std.Config.Name, std.Config.Nodes, std.Config.AvgDegree)
		d = gen.Generate(std.Config)
	} else {
		d = gen.Generate(gen.Config{
			Name: "custom", Nodes: *nodes, AvgDegree: *degree,
			FeatDim: 8, NumClasses: customClasses, Seed: *seed,
		})
	}
	g := d.G
	fmt.Printf("graph: %d nodes, %d adjacency entries\n\n", g.NumNodes(), g.NumEdges())

	fmt.Printf("%-8s  %10s  %8s  %9s  %s\n", "method", "edge-cut", "cut-frac", "imbalance", "part sizes")
	metis := partition.Metis(g, *gpus, *seed)
	for _, row := range []struct {
		method string
		res    *partition.Result
	}{{"metis", metis}, {"hash", partition.Hash(g, *gpus)}} {
		if err := row.res.Validate(g.NumNodes()); err != nil {
			fmt.Fprintf(os.Stderr, "dsppart: %v\n", err)
			os.Exit(1)
		}
		cut, frac := partition.EdgeCut(g, row.res)
		fmt.Printf("%-8s  %10d  %7.1f%%  %9.3f  %v\n",
			row.method, cut, 100*frac, row.res.Imbalance(), row.res.PartSizes())
	}

	// Locality preview: fraction of a simulated frontier whose adjacency is
	// patch-local under the METIS layout (what CSP exploits).
	ren := partition.BuildRenumbering(metis)
	lg := ren.ApplyToGraph(g)
	var local, total int64
	for v := 0; v < lg.NumNodes(); v++ {
		p := ren.Owner(graph.NodeID(v))
		for _, u := range lg.Neighbors(graph.NodeID(v)) {
			total++
			if ren.Owner(u) == p {
				local++
			}
		}
	}
	fmt.Printf("\nCSP locality under METIS layout: %.1f%% of neighbour references stay on the owning GPU\n",
		100*float64(local)/float64(total))
}

// usageError reports a bad flag value on stderr and exits 2, as the flag
// package does for a flag it cannot parse.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsppart: "+format+"\n", args...)
	os.Exit(2)
}
