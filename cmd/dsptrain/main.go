// Command dsptrain trains a GNN end to end with DSP on the simulated
// multi-GPU machine and reports per-epoch progress: virtual epoch time,
// training accuracy and validation accuracy.
//
// Usage:
//
//	dsptrain -dataset products -gpus 4 -epochs 5
//	dsptrain -dataset papers -gpus 8 -arch gcn -shrink 8
//	dsptrain -system dgl-uva -dataset products -gpus 2
//
// Fault tolerance (-system dsp or dsp-seq): -faults injects a deterministic
// fault schedule and -ckpt-every sets the checkpoint cadence; a GPU crash
// restarts the fleet from the last checkpoint and replays, converging to the
// same final model as a crash-free run.
//
//	dsptrain -faults 'crash@gpu2:t=1.5' -ckpt-every 50
//	dsptrain -faults 'stall@gpu0:t=0.8+50ms,degrade@gpu1-gpu2:t=0.3+20ms:x4'
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/cliopts"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

func main() {
	var (
		dsName  = flag.String("dataset", "products", "dataset: products, papers, friendster")
		gpus    = flag.Int("gpus", 4, "simulated GPU count (1-8)")
		epochs  = flag.Int("epochs", 5, "training epochs")
		archStr = flag.String("arch", "sage", "model: sage, gcn or gat")
		hidden  = flag.Int("hidden", 64, "hidden units (paper uses 256; smaller is faster on the host)")
		batch   = flag.Int("batch", 512, "batch size")
		shrink  = flag.Int("shrink", 4, "dataset shrink divisor")
		sysName = flag.String("system", "dsp", "system: dsp, dsp-seq, pyg, dgl-cpu, dgl-uva, quiver")
		seed    = flag.Uint64("seed", 1, "run seed")
		traceTo = flag.String("trace", "", "write a Chrome trace of the run to this file")
		dataIn  = flag.String("data", "", "load a prepared .dspd dataset (from dspdata) instead of generating")
		saveTo  = flag.String("save", "", "write the trained model checkpoint to this file")
		loadFm  = flag.String("load", "", "initialise the model from a checkpoint before training")
		ckptEv  = flag.Int("ckpt-every", 0,
			"checkpoint cadence in steps, 0 = epoch boundaries only (with -faults or alone to measure overhead)")
		ckptTo = flag.String("ckpt-file", "", "mirror every committed training checkpoint to this file")
	)
	common := cliopts.Register(flag.CommandLine)
	common.RegisterGrad(flag.CommandLine)
	graphOpts := cliopts.RegisterGraph(flag.CommandLine)
	teleOpts := cliopts.RegisterTelemetry(flag.CommandLine)
	flag.Parse()

	hub, err := teleOpts.Hub(0)
	check(2, err)
	arch, err := nn.ParseArch(*archStr)
	if err != nil {
		check(2, fmt.Errorf("-arch: %w", err))
	}
	td, nGPU, recShrink, err := cliopts.LoadData(*dataIn, *dsName, *gpus, *shrink)
	check(2, err)
	*gpus = nGPU
	faults, err := common.FaultSchedule(*gpus)
	check(2, err)
	ftMode := len(faults) > 0 || *ckptEv > 0 || *ckptTo != ""

	opts := train.Options{
		Data:               td,
		Model:              nn.Config{Arch: arch, InDim: td.FeatDim, Hidden: *hidden, Classes: td.NumClasses, Layers: 3},
		Sample:             sample.Config{Fanout: []int{10, 10, 5}},
		BatchSize:          *batch,
		RealCompute:        true,
		Pipeline:           true,
		UseCCC:             true,
		LR:                 0.003,
		Seed:               *seed,
		Faults:             faults,
		Parallel:           common.Parallel(),
		FeatureCacheBudget: common.CacheBudget,
		Strategy:           common.Strategy,
		CompressTopology:   graphOpts.Compress,
		OOC:                graphOpts.OOC,
		OOCBudget:          graphOpts.OOCBudget,
		OOCNoPrefetch:      graphOpts.OOCNoPrefetch,
	}
	opts.DynamicCache, err = common.Policy()
	check(2, err)
	opts.GradCodec, err = common.GradCodec(*seed)
	check(2, err)
	opts.FeatCodec, err = common.FeatCodec(*seed)
	check(2, err)
	if opts.GradCodec != nil || opts.FeatCodec != nil {
		fmt.Printf("compression: grad=%s feat=%s\n",
			compress.Name(opts.GradCodec), compress.Name(opts.FeatCodec))
	}
	if desc := graphOpts.Describe(); desc != "" {
		fmt.Printf("graph storage: %s\n", desc)
	}

	sys, err := core.NewSystem(*sysName, opts)
	check(2, err)
	rec, ok := sys.(train.Recoverable)
	if ftMode && !ok {
		check(2, fmt.Errorf("%s does not support the fault-tolerant driver (-faults, -ckpt-every, -ckpt-file)", sys.Name()))
	}

	// -report profiles the run from trace events, so it records an
	// in-memory trace even when -trace was not requested.
	var tracer *trace.Tracer
	if *traceTo != "" || common.Report != "" {
		tracer = trace.New()
		tracer.SetMaxEvents(common.TraceMaxEvents())
		sys.Machine().SetTracer(tracer)
	}

	if hub.Enabled() {
		if ftMode {
			// The fault-tolerant driver rebuilds a fresh engine per recovery
			// attempt; the hub's scraper daemon would die with the first one.
			check(2, fmt.Errorf("-telemetry is incompatible with -faults/-ckpt-every/-ckpt-file"))
		}
		at, ok := sys.(interface{ AttachTelemetry(*telemetry.Hub) })
		if !ok {
			check(2, fmt.Errorf("-telemetry requires -system dsp or dsp-seq"))
		}
		at.AttachTelemetry(hub)
	}
	if *loadFm != "" {
		ck, err := ckpt.LoadFile(*loadFm)
		check(1, err)
		if ck.Model != opts.Model {
			check(1, fmt.Errorf("checkpoint config %+v does not match model %+v", ck.Model, opts.Model))
		}
		// Every replica starts from the checkpoint (BSP keeps them equal).
		for _, m := range trainerModels(sys) {
			if len(ck.Params) != m.ParamCount() {
				check(1, fmt.Errorf("checkpoint %s has %d params, model wants %d", *loadFm, len(ck.Params), m.ParamCount()))
			}
			m.SetParamVector(ck.Params)
		}
		fmt.Printf("loaded checkpoint %s\n", *loadFm)
	}

	fmt.Printf("training %s with %s on %d simulated GPUs\n", opts.Model.Arch, sys.Name(), *gpus)
	// finish is the run epilogue: telemetry document, run report, trace file.
	finish := func(r *prof.RunReport) {
		r.Command, r.System, r.Dataset = "dsptrain", sys.Name(), td.Name
		r.GPUs, r.Seed, r.Shrink = *gpus, *seed, recShrink
		check(1, common.Finish(teleOpts, hub, sys.Machine().Eng.Now(), tracer, *traceTo, r))
		if tracer != nil && *traceTo != "" {
			fmt.Printf("wrote %d trace spans to %s (open in chrome://tracing)\n", tracer.Len(), *traceTo)
		}
	}
	if ftMode {
		if len(faults) > 0 {
			fmt.Printf("fault schedule: %s\n", fault.FormatSpec(faults))
		}
		mgr := &ckpt.Manager{EverySteps: *ckptEv, Path: *ckptTo}
		rep, err := train.RunRecoverable(rec, *epochs, mgr,
			func() (train.Recoverable, error) {
				ns, err := core.NewSystem(*sysName, opts)
				if err != nil {
					return nil, err
				}
				if tracer != nil {
					ns.Machine().SetTracer(tracer)
				}
				return ns.(train.Recoverable), nil
			})
		check(1, err)
		fmt.Println("epoch  sim-time(s)  train-acc  sample-MB  feature-MB")
		var cum float64
		for e, st := range rep.Epochs {
			cum += float64(st.EpochTime)
			fmt.Printf("%5d  %11.4g  %9.3f  %9.1f  %10.1f\n",
				e, cum, st.Acc(), float64(st.SampleWire)/(1<<20), float64(st.FeatureWire)/(1<<20))
		}
		fmt.Printf("total virtual time %.4gs  checkpoints %d (%.1f MB, overhead %.2f%%)\n",
			float64(rep.TotalTime), rep.Ckpt.Checkpoints,
			float64(rep.Ckpt.Bytes)/(1<<20), rep.Ckpt.OverheadPercent(rep.TotalTime))
		for _, rc := range rep.Recoveries {
			fmt.Printf("crash gpu%d at %.4gs: restore %.3gms, replayed %d steps, MTTR %.3gms\n",
				rc.GPU, float64(rc.CrashAt), 1e3*float64(rc.RestoreTime), rc.ReplaySteps, 1e3*float64(rc.MTTR))
		}
		if n := len(rep.Recoveries); n > 0 {
			fmt.Printf("recovered from %d crash(es), mean MTTR %.3gms\n", n, 1e3*float64(rep.MTTR()))
		}
		// The final model lives in the last committed checkpoint (the running
		// system may have been rebuilt since sys was constructed).
		final := nn.NewModel(opts.Model, opts.Seed)
		if last := mgr.Last(); last != nil && last.Params != nil {
			final.SetParamVector(last.Params)
		}
		fmt.Printf("final validation accuracy %.3f\n", train.Evaluate(td, final, opts.Sample, 2000, 99))
		saveModel(*saveTo, opts.Seed, final)
		finish(train.BuildRunReport(rep.Epochs, nil, rep))
		return
	}
	fmt.Println("epoch  sim-time(s)  train-acc  val-acc   sample-MB  feature-MB")
	var (
		cum      float64
		allStats []train.EpochStats
		valAccs  []float64
	)
	for e := 0; e < *epochs; e++ {
		st, err := sys.RunEpoch(e)
		if err != nil {
			check(1, fmt.Errorf("epoch %d: %w", e, err))
		}
		cum += float64(st.EpochTime)
		valAcc := train.Evaluate(td, sys.Model(), opts.Sample, 2000, 99)
		allStats = append(allStats, st)
		valAccs = append(valAccs, valAcc)
		fmt.Printf("%5d  %11.4g  %9.3f  %7.3f  %9.1f  %10.1f\n",
			e, cum, st.Acc(), valAcc,
			float64(st.SampleWire)/(1<<20), float64(st.FeatureWire)/(1<<20))
		if st.CacheLocal+st.CachePeer+st.CacheHost > 0 && opts.DynamicCache != cache.Static {
			fmt.Printf("       cache hit %.1f%% (local %d, nvlink %d, host %d)  promoted %d rows, %.1f MB, %.3gms\n",
				100*st.CacheHitRate(),
				st.CacheLocal, st.CachePeer, st.CacheHost,
				st.CachePromoted, float64(st.RebalanceBytes)/(1<<20), 1e3*float64(st.RebalanceTime))
		}
	}
	saveModel(*saveTo, opts.Seed, sys.Model())
	finish(train.BuildRunReport(allStats, valAccs, nil))
}

// saveModel is -save: m's parameters as a params-only checkpoint (cursor zero,
// no optimizer state) in the one format -load, -ckpt-file and the recovery
// driver share. A no-op without a path.
func saveModel(path string, seed uint64, m *nn.Model) {
	if path == "" {
		return
	}
	st := &ckpt.TrainState{Seed: seed, Model: m.Cfg, Params: make([]float32, m.ParamCount())}
	m.ParamVector(st.Params)
	check(1, st.SaveFile(path))
	fmt.Printf("saved model checkpoint to %s\n", path)
}

// trainerModels returns every model replica of a system so a checkpoint can
// be broadcast into all of them.
func trainerModels(sys train.System) []*nn.Model {
	type replicaHolder interface{ Replicas() []*nn.Model }
	if h, ok := sys.(replicaHolder); ok {
		return h.Replicas()
	}
	if m := sys.Model(); m != nil {
		return []*nn.Model{m}
	}
	return nil
}

// check exits with code after printing err, a no-op for a nil err.
func check(code int, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsptrain: %v\n", err)
		os.Exit(code)
	}
}
