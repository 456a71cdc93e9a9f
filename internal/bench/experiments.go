package bench

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/train"
)

// Table1 validates the fabric model against the paper's Table 1: aggregate
// NVLink and PCIe bandwidth (GB/s) by GPU count.
func Table1(cfg RunConfig) (*Table, error) {
	t := NewTable("Table 1: aggregate bandwidth", "GB/s",
		[]string{"PCIe", "NVLink"},
		[]string{"1-GPU", "2-GPU", "4-GPU", "8-GPU"})
	for _, n := range gpuCounts {
		topo := hw.DGX1(n)
		col := fmt.Sprintf("%d-GPU", n)
		t.Set("PCIe", col, topo.AggregatePCIeBandwidth()/1e9)
		t.Set("NVLink", col, topo.AggregateNVLinkBandwidth()/1e9)
	}
	t.Notes = append(t.Notes, "paper: PCIe 32/32/64/128, NVLink 0/100/400/1200")
	return t, nil
}

// Fig1 measures graph-sampling communication volume on 8 GPUs, normalised
// by the Ideal volume (only the needed bytes, all accesses remote): UVA
// pays full read amplification; CSP pushes tasks instead of pulling data.
func Fig1(cfg RunConfig) (*Table, error) {
	t := NewTable("Figure 1: sampling communication volume (normalized by Ideal)", "x",
		[]string{"UVA", "Ideal", "CSP"}, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 8, cfg.Shrink, false, true)
		opts := baseOpts(td, cfg)

		uva, err := buildSystem("DGL-UVA", opts)
		if err != nil {
			return nil, err
		}
		if _, _, err := measure(uva, RunConfig{Warmup: 0, Measure: 1}, true); err != nil {
			return nil, err
		}
		uvaWire := float64(uva.Machine().Fabric.Counters.TotalWire(hw.TrafficSample))
		ideal := float64(uva.Machine().Fabric.Counters.UsefulBytes[hw.TrafficSample])

		dsp, err := buildSystem("DSP", opts)
		if err != nil {
			return nil, err
		}
		if _, _, err := measure(dsp, RunConfig{Warmup: 0, Measure: 1}, true); err != nil {
			return nil, err
		}
		cspWire := float64(dsp.Machine().Fabric.Counters.TotalWire(hw.TrafficSample))

		t.Set("UVA", ds, uvaWire/ideal)
		t.Set("Ideal", ds, 1)
		t.Set("CSP", ds, cspWire/ideal)
	}
	t.Notes = append(t.Notes,
		"CSP < Ideal because patch-local adjacency accesses are free while Ideal counts every access as remote (paper footnote 1)")
	return t, nil
}

// Fig2 sweeps the thread allocation of the sampling and feature-loading
// kernels: execution time stabilises before all 5120 threads are used.
func Fig2(cfg RunConfig) (*Table, error) {
	threads := []int{256, 512, 1024, 2048, 3072, 4096, 5120}
	cols := make([]string, len(threads))
	for i, th := range threads {
		cols[i] = fmt.Sprintf("%d", th)
	}
	t := NewTable("Figure 2: kernel time vs physical threads (1 GPU)", "ms",
		[]string{"sampling", "feature-loading"}, cols)
	spec := hw.V100()
	const sampleItems = 2_000_000 // sampled edges in a large batch
	const gatherBytes = 100 << 20 // feature bytes gathered per batch
	for i, th := range threads {
		t.Set("sampling", cols[i], 1e3*float64(spec.KernelDuration(hw.KernelSample, sampleItems, th)))
		t.Set("feature-loading", cols[i], 1e3*float64(spec.KernelDuration(hw.KernelGather, gatherBytes, th)))
	}
	t.Notes = append(t.Notes, "paper: both kernels plateau before 5120 threads (memory-bound floor)")
	return t, nil
}

// epochTimeTable runs the full-training epoch-time comparison for a model
// family (Table 4 for GraphSAGE across GPU counts, Table 5 for GCN at 8).
func epochTimeTable(cfg RunConfig, title string, gcn bool, counts []int) (*Table, error) {
	var cols []string
	for _, ds := range dsList {
		for _, n := range counts {
			cols = append(cols, colName(ds, n))
		}
	}
	t := NewTable(title, "sim-s", systemNames, cols)
	for _, ds := range dsList {
		for _, n := range counts {
			td := prepared(ds, n, cfg.Shrink, false, true)
			opts := baseOpts(td, cfg)
			if gcn {
				opts.Model = gcnModel(td)
			}
			for _, name := range systemNames {
				sys, err := buildSystem(name, opts)
				if err != nil {
					return nil, err
				}
				avg, _, err := measure(sys, cfg, false)
				if err != nil {
					return nil, fmt.Errorf("%s on %s/%d: %w", name, ds, n, err)
				}
				t.Set(name, colName(ds, n), avg)
			}
		}
	}
	t.Notes = append(t.Notes,
		"virtual epoch seconds on the scaled stand-ins; multiply by the dataset scale factor (~25-500x) for paper-scale magnitudes",
		"shape to check: DSP fastest everywhere, CPU systems flat with GPU count")
	return t, nil
}

// Table4 is the headline epoch-time comparison (GraphSAGE).
func Table4(cfg RunConfig) (*Table, error) {
	return epochTimeTable(cfg, "Table 4: epoch time, GraphSAGE", false, gpuCounts)
}

// Table5 is the GCN epoch-time comparison at 8 GPUs.
func Table5(cfg RunConfig) (*Table, error) {
	return epochTimeTable(cfg, "Table 5: epoch time, GCN, 8 GPUs", true, []int{8})
}

// Table6 measures sampling-only epoch time for every system.
func Table6(cfg RunConfig) (*Table, error) {
	var cols []string
	for _, ds := range dsList {
		for _, n := range gpuCounts {
			cols = append(cols, colName(ds, n))
		}
	}
	t := NewTable("Table 6: sampling time per epoch", "sim-s", systemNames, cols)
	for _, ds := range dsList {
		for _, n := range gpuCounts {
			td := prepared(ds, n, cfg.Shrink, false, true)
			opts := baseOpts(td, cfg)
			for _, name := range systemNames {
				sys, err := buildSystem(name, opts)
				if err != nil {
					return nil, err
				}
				avg, _, err := measure(sys, cfg, true)
				if err != nil {
					return nil, err
				}
				t.Set(name, colName(ds, n), avg)
			}
		}
	}
	t.Notes = append(t.Notes, "shape to check: CSP (DSP) fastest; UVA beats CPU; CPU flat with GPUs")
	return t, nil
}

// Table7 compares layer-wise sampling without replacement: FastGCN on CPU
// vs DSP's CSP on 8 GPUs, fan-out 1000 per layer, batch 1024.
func Table7(cfg RunConfig) (*Table, error) {
	t := NewTable("Table 7: layer-wise sampling time per epoch (without replacement)", "sim-s",
		[]string{"FastGCN", "DSP"}, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 8, cfg.Shrink, false, true)
		opts := baseOpts(td, cfg)
		opts.Sample = sample.Config{Fanout: []int{1000, 1000}, LayerWise: true}
		opts.Model = nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 256, Classes: td.NumClasses, Layers: 2}
		for _, name := range []string{"FastGCN", "DSP"} {
			sys, err := buildSystem(name, opts)
			if err != nil {
				return nil, err
			}
			avg, _, err := measure(sys, cfg, true)
			if err != nil {
				return nil, err
			}
			t.Set(name, ds, avg)
		}
	}
	t.Notes = append(t.Notes, "paper: FastGCN is 2-4 orders of magnitude slower than DSP")
	return t, nil
}

// Fig6 reports average GPU utilization for sequential vs pipelined DSP.
func Fig6(cfg RunConfig) (*Table, error) {
	var cols []string
	for _, ds := range dsList {
		for _, n := range gpuCounts {
			cols = append(cols, colName(ds, n))
		}
	}
	t := NewTable("Figure 6: GPU utilization, DSP-Seq vs DSP pipeline", "%",
		[]string{"DSP-Seq", "DSP"}, cols)
	for _, ds := range dsList {
		for _, n := range gpuCounts {
			td := prepared(ds, n, cfg.Shrink, false, true)
			opts := baseOpts(td, cfg)
			for _, name := range []string{"DSP-Seq", "DSP"} {
				sys, err := buildSystem(name, opts)
				if err != nil {
					return nil, err
				}
				_, last, err := measure(sys, cfg, false)
				if err != nil {
					return nil, err
				}
				var u float64
				for _, x := range last.Utilization {
					u += x
				}
				t.Set(name, colName(ds, n), 100*u/float64(len(last.Utilization)))
			}
		}
	}
	t.Notes = append(t.Notes, "shape to check: pipeline utilization higher, gap widens with GPU count")
	return t, nil
}

// Fig9 trains for real on 8 GPUs and reports validation accuracy against
// cumulative batches and cumulative virtual time for DSP, DGL-UVA and
// Quiver. Accuracy-vs-batch curves coincide exactly (identical samples and
// BSP updates); accuracy-vs-time favours the faster system.
func Fig9(cfg RunConfig) (*Table, error) {
	// A dedicated small stand-in keeps real fp32 training tractable on the
	// host while preserving the comparison (the substitution DESIGN.md
	// documents for Papers100M).
	td := fig9Data(cfg)
	epochs := 6
	systems := []string{"DSP", "DGL-UVA", "Quiver"}
	var rows []string
	for _, s := range systems {
		rows = append(rows, s+"/acc", s+"/time")
	}
	var cols []string
	sched := train.NewSchedule(td, 256)
	for e := 1; e <= epochs; e++ {
		cols = append(cols, fmt.Sprintf("%db", e*sched.Steps*td.NumGPUs()))
	}
	t := NewTable("Figure 9: training quality (accuracy and cumulative sim-time per batch count)", "", rows, cols)
	for _, name := range systems {
		opts := baseOpts(td, cfg)
		opts.BatchSize = 256
		opts.Model = nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 32, Classes: td.NumClasses, Layers: 2}
		opts.Sample = sample.Config{Fanout: []int{10, 5}}
		opts.RealCompute = true
		opts.LR = 0.01
		sys, err := buildSystem(name, opts)
		if err != nil {
			return nil, err
		}
		var elapsed float64
		for e := 0; e < epochs; e++ {
			st, err := sys.RunEpoch(e)
			if err != nil {
				return nil, err
			}
			elapsed += float64(st.EpochTime)
			acc := train.Evaluate(td, sys.Model(), opts.Sample, 1000, 5)
			col := cols[e]
			t.Set(name+"/acc", col, acc)
			t.Set(name+"/time", col, elapsed)
		}
	}
	t.Notes = append(t.Notes,
		"accuracy rows must coincide across systems at equal batch counts (BSP equivalence, Figure 9a)",
		"time rows show DSP reaching any accuracy level first (Figure 9b)")
	return t, nil
}

// fig9Data builds the dedicated Figure 9 stand-in.
func fig9Data(cfg RunConfig) *train.Data {
	key := fmt.Sprintf("fig9/%d", cfg.Shrink)
	cacheMu.Lock()
	if td, ok := prepCache[key]; ok {
		cacheMu.Unlock()
		return td
	}
	cacheMu.Unlock()
	nodes := 20000 / cfg.Shrink
	if nodes < 2000 {
		nodes = 2000
	}
	d := genDataset(fmt.Sprintf("fig9-%d", nodes), nodes)
	td := train.Prepare(d, 8, 13, true)
	td.ScaleFactor = 111e6 / float64(nodes)
	td.GPUMemBytes = int64(16 * float64(1<<30) / td.ScaleFactor)
	cacheMu.Lock()
	prepCache[key] = td
	cacheMu.Unlock()
	return td
}

// Fig10 sweeps the split of a fixed per-GPU cache budget (the paper's 6 GB,
// scaled) between graph topology and node features on 8 GPUs: epoch time
// falls then rises, with the optimum keeping the full topology on GPU.
func Fig10(cfg RunConfig) (*Table, error) {
	fractions := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6, 4.0 / 6, 5.0 / 6, 5.75 / 6}
	var cols []string
	for _, f := range fractions {
		cols = append(cols, fmt.Sprintf("%.1fGB", f*6))
	}
	t := NewTable("Figure 10: epoch time vs feature-cache share of a 6 GB budget (8 GPUs)", "sim-s",
		[]string{"papers", "friendster", "papers/sampling", "friendster/sampling"}, cols)
	for _, ds := range []string{"papers", "friendster"} {
		td := prepared(ds, 8, cfg.Shrink, false, true)
		_, std := dataset(ds, cfg.Shrink, false)
		total := std.CacheBudgetBytes(6 << 30)
		for i, f := range fractions {
			featBudget := int64(f * float64(total))
			opts := baseOpts(td, cfg)
			opts.FeatureCacheBudget = featBudget
			opts.TopoCacheBudget = total - featBudget
			// The budget replaces the memory-derived default; make sure the
			// simulated GPU can hold it.
			opts.GPU.MemBytes = total * 2
			sys, err := buildSystem("DSP", opts)
			if err != nil {
				return nil, err
			}
			avg, _, err := measure(sys, cfg, false)
			if err != nil {
				return nil, err
			}
			t.Set(ds, cols[i], avg)
			// The sampler-only time isolates the topology-spill penalty
			// (on scaled stand-ins per-batch input dedup flattens the
			// feature-access skew, so part of the paper's right-flank rise
			// hides under the loader stage — see EXPERIMENTS.md).
			sOnly, _, err := measure(sys, RunConfig{Warmup: 0, Measure: 1}, true)
			if err != nil {
				return nil, err
			}
			t.Set(ds+"/sampling", cols[i], sOnly)
		}
	}
	t.Notes = append(t.Notes,
		"shape to check: U-curve on epoch time; best point keeps the whole topology in GPU memory",
		"the */sampling rows isolate the topology-spill penalty, which rises steeply on the right")
	return t, nil
}

// Fig11 compares CSP's task-push against the data-pull alternative for
// biased sampling on 4 GPUs.
func Fig11(cfg RunConfig) (*Table, error) {
	t := NewTable("Figure 11: biased sampling time per epoch, CSP vs PullData (4 GPUs)", "sim-s",
		[]string{"CSP", "PullData"}, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 4, cfg.Shrink, true, true)
		for _, mode := range []string{"CSP", "PullData"} {
			opts := baseOpts(td, cfg)
			opts.Sample = sample.Config{Fanout: []int{15, 10, 5}, Biased: true}
			opts.PullData = mode == "PullData"
			sys, err := buildSystem("DSP", opts)
			if err != nil {
				return nil, err
			}
			avg, _, err := measure(sys, cfg, true)
			if err != nil {
				return nil, err
			}
			t.Set(mode, ds, avg)
		}
	}
	t.Notes = append(t.Notes, "paper: CSP cuts PullData sampling time by up to 64%")
	return t, nil
}

// Fig12 reports the epoch-time speedup of the pipeline over DSP-Seq.
func Fig12(cfg RunConfig) (*Table, error) {
	var cols []string
	for _, n := range gpuCounts {
		cols = append(cols, fmt.Sprintf("%d-GPU", n))
	}
	t := NewTable("Figure 12: DSP speedup over DSP-Seq", "x", dsList, cols)
	for _, ds := range dsList {
		for _, n := range gpuCounts {
			td := prepared(ds, n, cfg.Shrink, false, true)
			opts := baseOpts(td, cfg)
			var times [2]float64
			for i, name := range []string{"DSP-Seq", "DSP"} {
				sys, err := buildSystem(name, opts)
				if err != nil {
					return nil, err
				}
				avg, _, err := measure(sys, cfg, false)
				if err != nil {
					return nil, err
				}
				times[i] = avg
			}
			t.Set(ds, fmt.Sprintf("%d-GPU", n), times[0]/times[1])
		}
	}
	t.Notes = append(t.Notes, "shape to check: speedup grows with GPU count, >1.5x at 8 GPUs")
	return t, nil
}
