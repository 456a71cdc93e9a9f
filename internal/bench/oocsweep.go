package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/train"
)

// oocPoint is one operating point on the memory-vs-throughput frontier the
// ooc-sweep walks: from everything-resident flat CSR down to a tight
// out-of-core block cache, with the prefetcher as the ablation arm.
type oocPoint struct {
	name       string
	compress   bool    // varint-compressed topology
	ooc        bool    // out-of-core tier enabled
	budgetFrac float64 // host block-cache budget as a fraction of block bytes
	prefetch   bool
}

// oocSweepPoints orders the frontier from most to least resident memory.
var oocSweepPoints = []oocPoint{
	{name: "flat in-core"},
	{name: "comp in-core", compress: true},
	{name: "ooc 75% +pf", compress: true, ooc: true, budgetFrac: 0.75, prefetch: true},
	{name: "ooc 75% -pf", compress: true, ooc: true, budgetFrac: 0.75},
	{name: "ooc 50% +pf", compress: true, ooc: true, budgetFrac: 0.50, prefetch: true},
	{name: "ooc 50% -pf", compress: true, ooc: true, budgetFrac: 0.50},
}

// OOCSweep walks the billion-scale storage frontier on the products stand-in:
// flat CSR fully resident, compressed CSR fully resident, then the
// out-of-core tier at shrinking host block-cache budgets with the
// proximity-aware prefetcher on and off. Columns: bytes held resident for
// topology+cache (the memory axis), epoch time (the throughput axis), and the
// store's hit rate, demand-stall time and prefetch accuracy.
//
// The sweep enforces the subsystem's two headline claims and fails loudly if
// either regresses: compressed topology must cut resident topology bytes at
// least 3x versus flat CSR, and at every equal cache budget the prefetcher
// must strictly beat demand-only fetching on epoch time.
func OOCSweep(cfg RunConfig) (*Table, error) {
	td := prepared("products", 4, cfg.Shrink, false, true)
	compBytes := graph.Compress(td.G).TopologyBytes()
	blockBytes := compBytes + int64(td.G.NumNodes())*int64(td.RowBytes())

	cols := []string{"resident MB", "epoch s", "hit%", "stall ms", "pf acc%"}
	rows := make([]string, len(oocSweepPoints))
	for i, p := range oocSweepPoints {
		rows[i] = p.name
	}
	t := NewTable("Out-of-core: memory vs throughput frontier (products-sim, 4 GPUs)", "mixed", rows, cols)

	type outcome struct {
		epoch    float64
		resident int64
	}
	results := map[string]outcome{}
	for _, p := range oocSweepPoints {
		sys, err := core.New(oocSweepOpts(td, p, blockBytes, cfg))
		_, avg, _, err := cfg.measure(sys, err)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		resident := sys.TopologyResidentBytes()
		st := sys.Counters()
		if p.ooc {
			// The memory axis counts the host block cache alongside the GPU
			// topology residency: that cache is what -ooc-budget buys.
			resident += int64(p.budgetFrac * float64(blockBytes))
		}
		t.Set(p.name, "resident MB", float64(resident)/1e6)
		t.Set(p.name, "epoch s", avg)
		if st.StoreHits+st.StoreMisses > 0 {
			t.Set(p.name, "hit%", 100*st.StoreHitRate())
			t.Set(p.name, "stall ms", 1e3*float64(st.StoreStall))
			t.Set(p.name, "pf acc%", 100*st.PrefetchAccuracy())
		}
		results[p.name] = outcome{epoch: avg, resident: resident}
	}

	// Claim (a): compressed topology cuts resident bytes >= 3x on the
	// standard generator graphs.
	flat := results["flat in-core"].resident
	comp := results["comp in-core"].resident
	if comp <= 0 || float64(flat)/float64(comp) < 3 {
		return nil, fmt.Errorf("ooc-sweep: compression ratio %.2fx below the required 3x (flat %d B, compressed %d B)",
			float64(flat)/float64(comp), flat, comp)
	}
	// Claim (b): at equal block-cache budget, prefetch-on strictly beats
	// prefetch-off epoch time.
	for _, frac := range []string{"75%", "50%"} {
		on := results["ooc "+frac+" +pf"].epoch
		off := results["ooc "+frac+" -pf"].epoch
		if on >= off {
			return nil, fmt.Errorf("ooc-sweep: prefetch-on epoch %.6fs not strictly below prefetch-off %.6fs at %s budget",
				on, off, frac)
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("compression holds the 3x floor: flat %.1f MB vs compressed %.1f MB resident (%.1fx)",
			float64(flat)/1e6, float64(comp)/1e6, float64(flat)/float64(comp)),
		"shape to check: epoch time rises as resident MB falls; +pf rows strictly below -pf rows at equal budget",
	)
	return t, nil
}

// oocSweepOpts assembles one frontier point's configuration. Every point
// shares the workload; only the storage mode varies, so epoch-time deltas are
// attributable to it. The ooc points pin tight GPU topology and feature
// budgets so the host tier actually sees traffic.
func oocSweepOpts(td *train.Data, p oocPoint, blockBytes int64, cfg RunConfig) train.Options {
	opts := baseOpts(td, cfg)
	opts.CompressTopology = p.compress
	if p.ooc {
		// Three quarters of the patch topology and half the owned feature
		// rows fit on GPU; the remainder lives behind the out-of-core tier.
		// The spill share keeps the device below saturation — the regime a
		// prefetcher is built for (hiding latency, not creating bandwidth).
		opts.TopoCacheBudget = graph.Compress(td.G).TopologyBytes() / int64(td.NumGPUs()) * 3 / 4
		opts.FeatureCacheBudget = int64(td.G.NumNodes()/td.NumGPUs()/2) * int64(td.RowBytes())
		opts.GPU.MemBytes = 4 * (opts.TopoCacheBudget + opts.FeatureCacheBudget)
		opts.OOC = true
		opts.OOCBudget = int64(p.budgetFrac * float64(blockBytes))
		opts.OOCNoPrefetch = !p.prefetch
		// Shrunken stand-ins with the full-scale 4096-node blocks collapse to
		// a handful of blocks; ~32 blocks per tier keeps the cache in the LRU
		// regime a 100M-node graph would see.
		opts.OOCBlockNodes = td.G.NumNodes() / 32
	}
	return opts
}
