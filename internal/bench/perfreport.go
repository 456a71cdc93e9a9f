package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/train"
)

// PerfReport runs the canonical perf workload — DSP with the default paper
// configuration on products/4 GPUs — and renders the measured epochs into
// the versioned RunReport schema. This is the document CI diffs against the
// committed BENCH_<pr>.json baseline: same RunConfig, same seed, and the
// simulator's determinism make the two byte-comparable.
func PerfReport(cfg RunConfig) (*prof.RunReport, error) {
	const (
		dsName = "products"
		nGPU   = 4
	)
	td := prepared(dsName, nGPU, cfg.Shrink, false, true)
	opts := baseOpts(td, cfg)
	sys, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	// Warm-up epochs run untraced; the profile covers the measured window.
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
	return train.BuildRunReport(train.ReportInput{
		Command: "dspbench", System: sys.Name(), Dataset: dsName,
		GPUs: nGPU, Seed: opts.Seed, Shrink: cfg.Shrink,
		Epochs: epochs, Tracer: tracer,
	}), nil
}

// Perf is the Experiments runner: it executes PerfReport and prints the
// headline numbers (the JSON document itself is written via -report).
func Perf(w io.Writer, cfg RunConfig) error {
	r, err := PerfReport(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "perf: %s on %s/%d (shrink %d, %d measured epochs)\n",
		r.System, r.Dataset, r.GPUs, r.Shrink, len(r.Epochs))
	fmt.Fprintf(w, "  wall time          %.4gs\n", r.WallTime)
	if p := r.Profile; p != nil {
		fmt.Fprintf(w, "  pipeline overlap   %.1f%%\n", 100*p.PipelineOverlap)
		fmt.Fprintf(w, "  comm/compute       %.1f%% hidden\n", 100*p.CommComputeOverlap)
		fmt.Fprintf(w, "  queue wait         %.4gs   ccc wait %.4gs\n",
			p.Stalls.QueueWait, p.Stalls.CCCWait)
		if n := len(p.CriticalPath); n > 0 {
			fmt.Fprintf(w, "  critical path      %d segments", n)
			for _, cat := range []string{"stage", "comm", "kernel", "idle"} {
				if d, ok := p.CriticalPathByCat[cat]; ok {
					fmt.Fprintf(w, "  %s %.3gs", cat, d)
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  wire MB            sample %.1f  feature %.1f  grad %.1f\n",
		float64(r.Wire.Sample)/(1<<20), float64(r.Wire.Feature)/(1<<20), float64(r.Wire.Grad)/(1<<20))
	return nil
}
