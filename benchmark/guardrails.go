package main

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/train"
)

// guardRails measures the code paths outside the four workloads that the
// one-execution-path refactor will touch, each on the data of the workload
// whose traced run carries it.
func (l *layerRun) guardRails() error {
	b := l.b
	epoch := func(sys interface {
		RunEpoch(int) (train.EpochStats, error)
	}) (hostCost, train.EpochStats, error) {
		if _, err := sys.RunEpoch(0); err != nil {
			return hostCost{}, train.EpochStats{}, err
		}
		var st train.EpochStats
		cost, err := timed(func() error {
			var err error
			st, err = sys.RunEpoch(1)
			return err
		})
		return cost, st, err
	}
	switch b.spec.name {
	case wTrainReal:
		opts := costOptions(b.data, b.seed)
		opts.Strategy = "p3"
		p3, err := core.New(opts)
		if err != nil {
			return fmt.Errorf("p3 guard rail: %w", err)
		}
		var cost hostCost
		var st train.EpochStats
		l.rec.do("strategy", "p3_epoch", func() { cost, st, err = epoch(p3) })
		if err != nil {
			return fmt.Errorf("p3 guard rail: %w", err)
		}
		l.set("strategy.p3_epoch_host_s", cost.seconds)
		l.set("strategy.p3_epoch_virt_ms", float64(st.EpochTime)*1e3)
		l.set("strategy.p3_alloc_mb", float64(cost.allocB)/1e6)

		multi, err := core.NewMulti(costOptions(b.data, b.seed), 2, hw.InfiniBandEDR())
		if err != nil {
			return fmt.Errorf("multi-machine guard rail: %w", err)
		}
		l.rec.do("core", "multi_epoch", func() { cost, st, err = epoch(multi) })
		if err != nil {
			return fmt.Errorf("multi-machine guard rail: %w", err)
		}
		l.set("core.multi_epoch_host_s", cost.seconds)
		l.set("core.multi_epoch_virt_ms", float64(st.EpochTime)*1e3)

	case wTrainCost:
		uva, err := baselines.New(baselines.DGLUVA, costOptions(b.data, b.seed))
		if err != nil {
			return fmt.Errorf("DGL-UVA guard rail: %w", err)
		}
		var st train.EpochStats
		l.rec.do("baselines", "dgluva_epoch", func() { _, st, err = epoch(uva) })
		if err != nil {
			return fmt.Errorf("DGL-UVA guard rail: %w", err)
		}
		// b.inst ran epoch 1 untraced; its EpochStats are the same epoch's.
		dsp := b.inst.(*trainInstance).epochTimes[1]
		l.set("baselines.dgluva_speedup_x", float64(st.EpochTime)/dsp)
		l.out.Notes = append(l.out.Notes, fmt.Sprintf(
			"baselines.dgluva_speedup_x %.2f: DGL-UVA / DSP virtual epoch on papers-sim, 8 GPUs. EXPERIMENTS.md puts the paper's gain over its best baseline there at 3.7x; the model reproduces the shape and is not validated against absolute times.",
			float64(st.EpochTime)/dsp))

	case wServeOpen:
		nominal := serveConfig(b.data, b.seed, ladder[ptNominal], b.scale.horizon)
		// The nominal point alternately plain and with a telemetry hub, five
		// runs: the hub's overhead is its faster run against the fastest plain
		// one (see partA on why neighbours and not an earlier minimum).
		plain, withHub := math.Inf(1), math.Inf(1)
		var doc *telemetry.Doc
		for i := 1; i <= 5; i++ {
			cfg := nominal
			if i%2 == 0 {
				cfg.Telemetry = telemetry.New(telemetry.Config{})
			}
			var rep *serve.Report
			cost, err := timed(func() error {
				var err error
				l.rec.do("telemetry", "nominal_run", func() { rep, err = serve.Serve(cfg) })
				return err
			})
			if err != nil {
				return fmt.Errorf("telemetry guard rail: %w", err)
			}
			if cfg.Telemetry != nil {
				withHub = min(withHub, cost.seconds)
				doc = cfg.Telemetry.Finish(rep.Makespan)
			} else {
				plain = min(plain, cost.seconds)
			}
		}
		err := doc.Validate()
		l.ck.add("the telemetry document passes Validate", err == nil, fmt.Sprint(err))
		for _, st := range doc.Requests.Stages {
			l.set("telemetry.stage_"+st.Name+"_ms", st.Duration.Mean*1e3)
		}
		l.set("telemetry.overhead_frac", withHub/plain-1)

		router, err := fleet.NewRouter(fleet.Config{Serve: nominal, Fleets: 2, Policy: fleet.LeastLoaded})
		if err != nil {
			return fmt.Errorf("fleet guard rail: %w", err)
		}
		var frep *fleet.Report
		secs := l.rec.do("fleet", "Router.Run", func() { frep, err = router.Run() })
		if err != nil {
			return fmt.Errorf("fleet guard rail: %w", err)
		}
		l.ck.add("fleet conserves requests", frep.Arrived == frep.Completed()+frep.Shed+frep.Lost(),
			fmt.Sprintf("arrived %d completed %d shed %d lost %d", frep.Arrived, frep.Completed(), frep.Shed, frep.Lost()))
		l.set("fleet.host_us_per_req", secs/float64(max(frep.Arrived, 1))*1e6)
	}
	return nil
}
