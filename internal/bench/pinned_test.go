package bench

import (
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/train"
)

// trainRow is one pinned training configuration: a change to the paper
// options (baseOpts on products/4) and the system built from them.
type trainRow struct {
	name  string
	want  uint64
	build func(train.Options) (*core.DSP, error)
}

// trainRows are TestTrainPinned's configurations. The first is the paper
// configuration itself; the others reach the pipeline-off schedule, the
// dimension-sliced strategy, the storage tiers (compressed topology, the
// out-of-core store, an int8 feature codec, a dynamic cache under a budget
// that forces all three tiers) and a two-machine cluster.
var trainRows = []trainRow{
	{"paper", 0x8623a77d77c4c56e, core.New},
	{"dsp-seq", 0xb4a6a95e9d3d5b9e, func(o train.Options) (*core.DSP, error) {
		o.Pipeline = false
		return core.New(o)
	}},
	{"p3", 0x576badc1327860ed, func(o train.Options) (*core.DSP, error) {
		o.Strategy = "p3"
		return core.New(o)
	}},
	{"tiered", 0x1a8935048b8dd900, func(o train.Options) (*core.DSP, error) {
		o.CompressTopology, o.OOC = true, true
		o.FeatCodec = compress.NewInt8(o.Seed + 1)
		o.DynamicCache, o.FeatureCacheBudget = cache.LFUDecay, 128<<10
		return core.New(o)
	}},
	{"cluster", 0x263d1e3ee7637a30, func(o train.Options) (*core.DSP, error) {
		return core.NewMulti(o, 2, hw.InfiniBandEDR())
	}},
}

// trainReport runs row on products/4 at shrink 12 — one untraced warm-up
// epoch, then two traced epochs — and renders them as the run report.
func trainReport(row trainRow, parallel int) (*prof.RunReport, error) {
	const (
		dsName = "products"
		nGPU   = 4
	)
	cfg := RunConfig{Shrink: 12, Warmup: 1, Measure: 2, Parallel: parallel}
	opts := baseOpts(prepared(dsName, nGPU, cfg.Shrink, false, true), cfg)
	sys, err := row.build(opts)
	if err != nil {
		return nil, err
	}
	for e := 0; e < cfg.Warmup; e++ {
		if _, err := sys.RunEpoch(e); err != nil {
			return nil, err
		}
	}
	tracer := trace.New()
	sys.Machine().SetTracer(tracer)
	var epochs []train.EpochStats
	for e := 0; e < cfg.Measure; e++ {
		st, err := sys.RunEpoch(cfg.Warmup + e)
		if err != nil {
			return nil, err
		}
		epochs = append(epochs, st)
	}
	r := train.BuildRunReport(epochs, nil, nil)
	r.Command, r.System, r.Dataset = "dspbench", sys.Name(), dsName
	r.GPUs, r.Seed, r.Shrink = nGPU, opts.Seed, cfg.Shrink
	r.Attach(nil, tracer)
	return r, nil
}

// TestTrainPinned holds every virtual result of five training configurations
// to an FNV-64a over the JSON of its run report: epoch times, stage times,
// wire and codec bytes, cache and store tiers, the profile's critical path.
// The simulator is deterministic, so any change at all is a failure; a change
// that moves virtual results on purpose re-pins the rows it moves (the
// failure message prints the new hash). The paper row also runs with eight
// offload threads against the same constant, because -parallel must not move
// a bit. The constants were recorded at commit ae4e485, where the paper row's
// report equals, byte for byte, the perf run report dspbench wrote at shrink
// 12, and every row was re-pinned when a training step came to be priced by
// nn.NominalFlops, the work TrainStep executes. They are amd64 values (arm64 fuses a*b+c in the cost models), so the
// test only runs there.
func TestTrainPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned constants are amd64 values (arm64 fuses a*b+c)")
	}
	check := func(t *testing.T, row trainRow, parallel int) {
		r, err := trainReport(row, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		js, err := r.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(js)
		if got := h.Sum64(); got != row.want {
			t.Errorf("%s at -parallel %d: hash %#x, pinned %#x", row.name, parallel, got, row.want)
		}
	}
	for _, row := range trainRows {
		t.Run(row.name, func(t *testing.T) { check(t, row, 1) })
	}
	t.Run("paper-parallel-8", func(t *testing.T) { check(t, trainRows[0], 8) })
}
