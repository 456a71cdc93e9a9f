package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/train"
)

// strategySweepWidths are the feature widths the sweep walks, narrow to wide.
// The push-pull exchange moves O(hidden) bytes per input node regardless of
// the feature width, while DSP's gather moves O(F); the sweep brackets the
// crossover from both sides.
var strategySweepWidths = []int{32, 128, 1024}

// strategySweepSystems are the compared systems: the paper layout, the
// dimension-partitioned hybrid, and the strongest baseline as reference.
var strategySweepSystems = []string{"DSP", "P3", "DGL-UVA"}

// StrategySweep compares the execution strategies across feature widths on
// the products stand-in (4 GPUs, hidden-64 GraphSAGE so the activation width
// sits well below the widest feature width). Columns per width: mean epoch
// time and the per-epoch feature-class wire bytes (gather traffic for DSP and
// DGL-UVA, id allgather plus partial-activation push for P3).
//
// The sweep enforces the strategy layer's headline claim and fails loudly if
// it regresses: at the widest features P3 must strictly beat DSP on both
// epoch time and feature wire bytes, and at the narrowest DSP must strictly
// beat P3 on both — the crossover is the point of having two strategies.
func StrategySweep(cfg RunConfig) (*Table, error) {
	var cols []string
	for _, f := range strategySweepWidths {
		cols = append(cols, fmt.Sprintf("f%d epoch s", f), fmt.Sprintf("f%d feat MB", f))
	}
	t := NewTable("Execution strategies: DSP vs P3 across feature widths (products-sim, 4 GPUs)", "mixed", strategySweepSystems, cols)

	type outcome struct {
		epoch float64
		wire  int64
	}
	results := map[string]outcome{}
	for _, f := range strategySweepWidths {
		td := strategySweepData(f, cfg.Shrink)
		for _, name := range strategySweepSystems {
			// P3 is an execution strategy of the DSP system, not a system.
			opts, system := strategySweepOpts(td, cfg), name
			if name == "P3" {
				opts.Strategy, system = "p3", "DSP"
			}
			_, avg, last, err := cfg.measure(core.NewSystem(system, opts))
			if err != nil {
				return nil, fmt.Errorf("%s f%d: %w", name, f, err)
			}
			t.Set(name, fmt.Sprintf("f%d epoch s", f), avg)
			t.Set(name, fmt.Sprintf("f%d feat MB", f), float64(last.FeatureWire)/1e6)
			results[fmt.Sprintf("%s/%d", name, f)] = outcome{epoch: avg, wire: last.FeatureWire}
		}
	}

	narrow := strategySweepWidths[0]
	wide := strategySweepWidths[len(strategySweepWidths)-1]
	// Claim (a): at the widest features P3 strictly wins both axes.
	dsp, p3 := results[fmt.Sprintf("DSP/%d", wide)], results[fmt.Sprintf("P3/%d", wide)]
	if p3.epoch >= dsp.epoch {
		return nil, fmt.Errorf("strategy-sweep: P3 epoch %.6fs not strictly below DSP %.6fs at width %d",
			p3.epoch, dsp.epoch, wide)
	}
	if p3.wire >= dsp.wire {
		return nil, fmt.Errorf("strategy-sweep: P3 feature wire %d B not strictly below DSP %d B at width %d",
			p3.wire, dsp.wire, wide)
	}
	// Claim (b): at the narrowest features DSP strictly wins both axes.
	dsp, p3 = results[fmt.Sprintf("DSP/%d", narrow)], results[fmt.Sprintf("P3/%d", narrow)]
	if dsp.epoch >= p3.epoch {
		return nil, fmt.Errorf("strategy-sweep: DSP epoch %.6fs not strictly below P3 %.6fs at width %d",
			dsp.epoch, p3.epoch, narrow)
	}
	if dsp.wire >= p3.wire {
		return nil, fmt.Errorf("strategy-sweep: DSP feature wire %d B not strictly below P3 %d B at width %d",
			dsp.wire, p3.wire, narrow)
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("crossover holds: P3 wins epoch time and feature wire at f%d, DSP wins both at f%d", wide, narrow),
		"P3 wire is O(hidden) per input node (id allgather + partial-activation push), DSP wire is O(F)",
	)
	return t, nil
}

// strategySweepData builds the products stand-in at one feature width. The
// width departs from the registry config, so the shared prepared() cache is
// bypassed on purpose — each width is its own dataset. GPU memory is sized
// so both layouts hold their feature residency (a full [#nodes, F/world]
// slice per GPU under P3, the same total bytes as DSP's row partition) with
// headroom — the sweep compares exchange structure, not cache pressure.
func strategySweepData(featDim, shrink int) *train.Data {
	std := gen.StandardDataset("products", shrink)
	c := std.Config
	c.FeatDim = featDim
	c.Name = fmt.Sprintf("%s-f%d", c.Name, featDim)
	td := train.Prepare(gen.Generate(c), 4, 13, true)
	td.ScaleFactor = std.ScaleFactor
	td.GPUMemBytes = std.GPUMemBytes()
	td.BenchBatch = std.BenchBatch
	featBytes := int64(td.G.NumNodes()) * int64(td.RowBytes())
	if mem := 4 * (featBytes/int64(td.NumGPUs()) + td.G.TopologyBytes()); mem > td.GPUMemBytes {
		td.GPUMemBytes = mem
	}
	return td
}

// strategySweepOpts assembles one run's configuration: hidden-64 GraphSAGE
// over the paper fan-out, cost-only compute. The small hidden width keeps
// the push-pull exchange volume well below the widest feature width, which
// is the regime P3 is built for.
func strategySweepOpts(td *train.Data, cfg RunConfig) train.Options {
	opts := baseOpts(td, cfg)
	opts.Model = nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 64, Classes: td.NumClasses, Layers: 3}
	return opts
}
