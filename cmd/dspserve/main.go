// Command dspserve runs online GNN inference serving on the simulated
// multi-GPU machine: a seeded Poisson request stream with power-law node
// popularity is micro-batched onto the fleet, and the run reports
// end-to-end latency percentiles, throughput, shed rate and cache hit rate.
//
// Usage:
//
//	dspserve -dataset products -gpus 4 -duration 1 -rate 4000
//	dspserve -rate 20000 -mode single          # batching ablation: no batching
//	dspserve -rate 4000 -skew 1.2 -real        # hotter skew, real fp32 forward
//	dspserve -rate 8000 -trace serve.json      # per-request Chrome trace
//	dspserve -drift-every 0.1 -cache lfu       # adaptive cache vs popularity drift
//
// Fault injection: -faults drives degraded-mode serving — a crashed GPU's
// requests re-route to the next live replica and the fleet keeps answering.
//
//	dspserve -duration 0.5 -faults 'crash@gpu2:t=0.2'
//	dspserve -faults 'linkdown@gpu0-gpu1:t=0.1+50ms,stall@gpu3:t=0.3+20ms'
//
// Replicated serving: -fleets N puts a router in front of N full replicas
// sharing one virtual clock, with -router picking the dispatch policy,
// -tenants adding token-bucket admission quotas, -slo goodput accounting and
// -autoscale SLO-band scaling. The -faults grammar becomes fleet-scoped.
//
//	dspserve -fleets 3 -router least-loaded -slo 0.005
//	dspserve -fleets 3 -faults 'crash@fleet1:t=0.2' -slo 0.005
//	dspserve -fleets 1 -autoscale 1:4 -slo 0.005 -rate 40000
//	dspserve -fleets 2 -tenants 'free:4:500,pro:1'
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliopts"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		dsName   = flag.String("dataset", "products", "dataset: products, papers, friendster")
		gpus     = flag.Int("gpus", 4, "simulated GPU count (1-8)")
		shrink   = flag.Int("shrink", 4, "dataset shrink divisor")
		dataIn   = flag.String("data", "", "load a prepared .dspd dataset (from dspdata) instead of generating")
		duration = flag.Float64("duration", 1.0, "arrival window in virtual seconds")
		rate     = flag.Float64("rate", 4000, "offered load in requests per virtual second")
		skew     = flag.Float64("skew", 0.8, "power-law popularity exponent (0 = uniform)")
		mode     = flag.String("mode", "dynamic", "batching policy: dynamic, single, fixed")
		maxBatch = flag.Int("maxbatch", 32, "max requests per GPU per round")
		maxWait  = flag.Float64("maxwait", 2e-3, "max queueing delay before a dynamic flush (virtual seconds)")
		queue    = flag.Int("queue", 0, "admission queue depth per GPU (0 = 4x maxbatch)")
		seed     = flag.Uint64("seed", 1, "run seed")
		real     = flag.Bool("real", false, "run the real fp32 forward pass and report predictions")
		rebEvery = flag.Float64("rebalance-every", 25e-3, "cache rebalance period in virtual seconds")
		drift    = flag.Float64("drift-every", 0, "re-draw the popularity assignment at this virtual period (0 = static popularity)")
		traceTo  = flag.String("trace", "", "write a Chrome trace of the run to this file")
	)
	common := cliopts.Register(flag.CommandLine)
	fleetOpts := cliopts.RegisterFleet(flag.CommandLine)
	graphOpts := cliopts.RegisterGraph(flag.CommandLine)
	teleOpts := cliopts.RegisterTelemetry(flag.CommandLine)
	flag.Parse()

	hub, err := teleOpts.Hub(fleetOpts.SLO())
	check(2, err)
	nFleets, err := fleetOpts.N()
	check(2, err)
	fleetMode := fleetOpts.FleetMode()
	routerPolicy, err := fleetOpts.Policy()
	check(2, err)
	autoscale, err := fleetOpts.Autoscale()
	check(2, err)
	tenants, err := fleetOpts.Tenants()
	check(2, err)
	td, nGPU, recShrink, err := cliopts.LoadData(*dataIn, *dsName, *gpus, *shrink)
	check(2, err)
	*gpus = nGPU

	built := max(nFleets, autoscale.Max)
	var faults []fault.Fault
	var fleetFaults []fault.FleetFault
	if fleetMode {
		// With a router in front, -faults speaks the fleet-scoped grammar.
		fleetFaults, err = common.FleetFaultSchedule(built, *gpus)
	} else {
		faults, err = common.FaultSchedule(*gpus)
	}
	check(2, err)
	batching, err := serve.ParseBatching(*mode)
	if err != nil {
		check(2, fmt.Errorf("-mode: %w", err))
	}
	policy, err := common.Policy()
	check(2, err)
	featCodec, err := common.FeatCodec(*seed)
	check(2, err)
	if featCodec != nil {
		fmt.Printf("compression: feat=%s\n", compress.Name(featCodec))
	}

	cfg := serve.Config{
		Data:               td,
		RealCompute:        *real,
		Seed:               *seed,
		Parallel:           common.Parallel(),
		Duration:           sim.Time(*duration),
		Rate:               *rate,
		Skew:               *skew,
		Batching:           batching,
		MaxBatch:           *maxBatch,
		MaxWait:            sim.Time(*maxWait),
		QueueDepth:         *queue,
		UseCCC:             true,
		FeatureCacheBudget: common.CacheBudget,
		DynamicCache:       policy,
		RebalanceEvery:     sim.Time(*rebEvery),
		DriftEvery:         sim.Time(*drift),
		FeatCodec:          featCodec,
		Strategy:           common.Strategy,
		Faults:             faults,
		Tenants:            tenants,
		SLO:                fleetOpts.SLO(),
		Telemetry:          hub,
		CompressTopology:   graphOpts.Compress,
		OOC:                graphOpts.OOC,
		OOCBudget:          graphOpts.OOCBudget,
		OOCNoPrefetch:      graphOpts.OOCNoPrefetch,
	}
	if desc := graphOpts.Describe(); desc != "" {
		fmt.Printf("graph storage: %s\n", desc)
	}

	// finish is the run epilogue: telemetry document, run report, trace file,
	// then the report's summary (what dspprof summary prints for it).
	finish := func(end sim.Time, totalGPUs int, r *prof.RunReport) {
		r.Dataset, r.GPUs, r.Seed, r.Shrink = td.Name, totalGPUs, *seed, recShrink
		check(1, common.Finish(teleOpts, hub, end, cfg.Tracer, *traceTo, r))
		if *traceTo != "" {
			fmt.Printf("trace written to %s (%d events)\n", *traceTo, cfg.Tracer.Len())
		}
		fmt.Print(r.Summary())
	}

	// -report profiles a stand-alone run from trace events, so it records an
	// in-memory trace even when -trace was not requested; a router refuses
	// any tracer.
	if *traceTo != "" || (common.Report != "" && !fleetMode) {
		cfg.Tracer = trace.New()
		cfg.Tracer.SetMaxEvents(common.TraceMaxEvents())
	}

	if fleetMode {
		router, err := fleet.NewRouter(fleet.Config{
			Serve:     cfg,
			Fleets:    nFleets,
			Policy:    routerPolicy,
			Autoscale: autoscale,
			Faults:    fleetFaults,
		})
		check(2, err)
		fmt.Printf("serving %s on %d fleets x %d GPUs: %s routing, %s batching, %.0f req/s for %.2fs...\n",
			td.Name, built, *gpus, routerPolicy, batching, *rate, *duration)
		rep, err := router.Run()
		check(1, err)
		finish(rep.Makespan, built**gpus, rep.RunReport())
		return
	}

	srv, err := serve.NewServer(cfg)
	check(2, err)
	fmt.Printf("serving %s on %d GPUs: %s batching, %.0f req/s for %.2fs...\n",
		td.Name, *gpus, batching, *rate, *duration)
	rep, err := srv.Run()
	check(1, err)
	finish(rep.Makespan, *gpus, rep.RunReport())
}

// check exits with code after printing err, a no-op for a nil err.
func check(code int, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dspserve: %v\n", err)
		os.Exit(code)
	}
}
