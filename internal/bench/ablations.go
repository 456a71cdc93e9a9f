package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/featstore"
	"repro/internal/gen"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/sim"
)

// genDataset builds a mid-size community dataset for harness-internal
// experiments (Figure 9 and ablations).
func genDataset(name string, nodes int) *gen.Dataset {
	return gen.Generate(gen.Config{
		Name: name, Nodes: nodes, AvgDegree: 20, FeatDim: 32,
		NumClasses: 16, Seed: 4242,
	})
}

// AblationPartition compares METIS-style layout against hash partitioning
// (Section 3.1's "well-connected patches" claim): epoch time and sampling
// wire volume on 4 GPUs.
func AblationPartition(cfg RunConfig) (*Table, error) {
	t := NewTable("Ablation: METIS layout vs hash partitioning (4 GPUs)", "",
		[]string{"metis/epoch-s", "hash/epoch-s", "metis/sample-MB", "hash/sample-MB"}, dsList)
	for _, ds := range dsList {
		for _, metis := range []bool{true, false} {
			td := prepared(ds, 4, cfg.Shrink, false, metis)
			_, avg, last, err := cfg.measure(core.New(baseOpts(td, cfg)))
			if err != nil {
				return nil, err
			}
			label := "hash"
			if metis {
				label = "metis"
			}
			t.Set(label+"/epoch-s", ds, avg)
			t.Set(label+"/sample-MB", ds, float64(last.SampleWire)/(1<<20))
		}
	}
	t.Notes = append(t.Notes, "expected: METIS cuts sampling communication (local adjacency accesses) and epoch time")
	return t, nil
}

// AblationCachePolicy compares the hot-node criteria of Section 2 (degree,
// PageRank, reverse PageRank) under a tight feature-cache budget.
func AblationCachePolicy(cfg RunConfig) (*Table, error) {
	policies := []featstore.Policy{featstore.ByDegree, featstore.ByPageRank, featstore.ByReversePageRank}
	var rows []string
	for _, p := range policies {
		rows = append(rows, p.String())
	}
	t := NewTable("Ablation: hot-node selection policy (8 GPUs, 25% feature cache)", "PCIe feature MB", rows, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 8, cfg.Shrink, false, true)
		for _, pol := range policies {
			opts := baseOpts(td, cfg)
			opts.CachePolicy = pol
			opts.FeatureCacheBudget = td.FeatureBytes() / 4 / 8 // 25% aggregate across 8 GPUs
			sys, _, _, err := cfg.measure(core.New(opts))
			if err != nil {
				return nil, err
			}
			bytes := sys.Machine().Fabric.Counters.PCIeBytes[hw.TrafficFeature]
			t.Set(pol.String(), ds, float64(bytes)/(1<<20))
		}
	}
	t.Notes = append(t.Notes, "lower is better: fewer cold-feature UVA bytes mean the policy ranked truly hot nodes first")
	return t, nil
}

// AblationQueueCap sweeps the pipeline queue capacity (the paper finds 2
// sufficient).
func AblationQueueCap(cfg RunConfig) (*Table, error) {
	caps := []int{1, 2, 4, 8}
	var cols []string
	for _, c := range caps {
		cols = append(cols, fmt.Sprintf("cap=%d", c))
	}
	t := NewTable("Ablation: pipeline queue capacity (8 GPUs)", "sim-s", dsList, cols)
	for _, ds := range dsList {
		td := prepared(ds, 8, cfg.Shrink, false, true)
		for i, c := range caps {
			opts := baseOpts(td, cfg)
			opts.QueueCap = c
			_, avg, _, err := cfg.measure(core.New(opts))
			if err != nil {
				return nil, err
			}
			t.Set(ds, cols[i], avg)
		}
	}
	t.Notes = append(t.Notes, "expected: capacity 2 captures nearly all of the overlap benefit")
	return t, nil
}

// AblationCCC runs the pipelined system with and without centralized
// communication coordination; without it, concurrent collectives may
// deadlock (reported as -1).
func AblationCCC(cfg RunConfig) (*Table, error) {
	t := NewTable("Ablation: centralized communication coordination (4 GPUs)", "sim-s (-1 = deadlock)",
		[]string{"with-CCC", "without-CCC"}, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 4, cfg.Shrink, false, true)
		for _, useCCC := range []bool{true, false} {
			opts := baseOpts(td, cfg)
			opts.UseCCC = useCCC
			row := "without-CCC"
			if useCCC {
				row = "with-CCC"
			}
			_, avg, _, err := cfg.measure(core.New(opts))
			if err != nil {
				if _, ok := err.(*sim.DeadlockError); ok {
					t.Set(row, ds, -1)
					continue
				}
				return nil, err
			}
			t.Set(row, ds, avg)
		}
	}
	t.Notes = append(t.Notes,
		"without CCC the collectives are ungated; on real hardware inconsistent launch order deadlocks (Figure 8), demonstrated deterministically in pipeline tests")
	return t, nil
}

// AblationReplicatedCache compares DSP's partitioned feature cache against
// Quiver-style replication under the same per-GPU budget.
func AblationReplicatedCache(cfg RunConfig) (*Table, error) {
	t := NewTable("Ablation: partitioned vs replicated feature cache (8 GPUs)", "",
		[]string{"partitioned/epoch-s", "replicated/epoch-s", "partitioned/uva-MB", "replicated/uva-MB"}, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 8, cfg.Shrink, false, true)
		for _, repl := range []bool{false, true} {
			opts := baseOpts(td, cfg)
			opts.ReplicatedCache = repl
			opts.FeatureCacheBudget = td.FeatureBytes() / 4 / 8
			sys, avg, _, err := cfg.measure(core.New(opts))
			if err != nil {
				return nil, err
			}
			label := "partitioned"
			if repl {
				label = "replicated"
			}
			t.Set(label+"/epoch-s", ds, avg)
			uva := sys.Machine().Fabric.Counters.PCIeBytes[hw.TrafficFeature]
			t.Set(label+"/uva-MB", ds, float64(uva)/(1<<20))
		}
	}
	t.Notes = append(t.Notes, "partitioned caching holds 8x more distinct rows, cutting UVA feature traffic")
	return t, nil
}

// AblationFusedKernels compares DSP's fused sample-stage kernel against the
// asynchronous one-kernel-per-task alternative §4.1 rejects.
func AblationFusedKernels(cfg RunConfig) (*Table, error) {
	t := NewTable("Ablation: fused vs per-task sampling kernels (4 GPUs)", "sampling sim-s",
		[]string{"fused", "per-task"}, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 4, cfg.Shrink, false, true)
		for _, unfused := range []bool{false, true} {
			opts := baseOpts(td, cfg)
			opts.UnfusedSampling = unfused
			_, avg, _, err := cfg.measureSampling(core.New(opts))
			if err != nil {
				return nil, err
			}
			row := "fused"
			if unfused {
				row = "per-task"
			}
			t.Set(row, ds, avg)
		}
	}
	t.Notes = append(t.Notes, "per-task launches pay kernel launch overhead thousands of times per batch")
	return t, nil
}

// AblationMultiWorker compares the single-instance pipeline against 2x2
// sampler/loader instances (§5's rejected multi-instance design).
func AblationMultiWorker(cfg RunConfig) (*Table, error) {
	t := NewTable("Ablation: single vs multi-instance workers (8 GPUs)", "epoch sim-s",
		[]string{"1S/1L", "2S/2L", "3S/2L"}, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 8, cfg.Shrink, false, true)
		for _, w := range []struct {
			row  string
			s, l int
		}{{"1S/1L", 1, 1}, {"2S/2L", 2, 2}, {"3S/2L", 3, 2}} {
			opts := baseOpts(td, cfg)
			opts.NumSamplers = w.s
			opts.NumLoaders = w.l
			_, avg, _, err := cfg.measure(core.New(opts))
			if err != nil {
				return nil, err
			}
			t.Set(w.row, ds, avg)
		}
	}
	t.Notes = append(t.Notes,
		"extra instances hold in-flight buffers in device memory and contend for communication slots (the paper's reasons for a single instance per task)")
	return t, nil
}

// AblationMultiMachine scales DSP across 1-4 simulated machines of 4 GPUs.
func AblationMultiMachine(cfg RunConfig) (*Table, error) {
	t := NewTable("Extension: multi-machine scaling (4 GPUs per machine)", "epoch sim-s",
		[]string{"1 machine", "2 machines", "4 machines"}, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 4, cfg.Shrink, false, true)
		for _, m := range []int{1, 2, 4} {
			_, avg, _, err := cfg.measure(core.NewMulti(baseOpts(td, cfg), m, hw.InfiniBandEDR()))
			if err != nil {
				return nil, err
			}
			t.Set(fmt.Sprintf("%d machine%s", m, map[bool]string{true: "s", false: ""}[m > 1]), ds, avg)
		}
	}
	t.Notes = append(t.Notes, "machines replicate topology + hot features and communicate only cold features and gradients (paper §3.2)")
	return t, nil
}

// ExtensionGNNArchs compares DSP epoch time across GNN architectures at 8
// GPUs: GCN (lightest), GraphSAGE (the default), GAT (heaviest — per-edge
// attention). The paper evaluates GraphSAGE and GCN; GAT is this
// repository's extension.
func ExtensionGNNArchs(cfg RunConfig) (*Table, error) {
	archs := []nn.Arch{nn.GCN, nn.SAGE, nn.GAT}
	var rows []string
	for _, a := range archs {
		rows = append(rows, a.String())
	}
	t := NewTable("Extension: DSP epoch time by GNN architecture (8 GPUs)", "sim-s", rows, dsList)
	for _, ds := range dsList {
		td := prepared(ds, 8, cfg.Shrink, false, true)
		for _, a := range archs {
			opts := baseOpts(td, cfg)
			opts.Model = nn.Config{Arch: a, InDim: td.FeatDim, Hidden: 256, Classes: td.NumClasses, Layers: 3}
			_, avg, _, err := cfg.measure(core.New(opts))
			if err != nil {
				return nil, err
			}
			t.Set(a.String(), ds, avg)
		}
	}
	t.Notes = append(t.Notes, "expected ordering: GCN < GraphSAGE < GAT epoch time")
	return t, nil
}
