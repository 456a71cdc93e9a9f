package main

// The names below are the benchmark's public surface: BENCHMARK.json lists
// the same workloads and metrics (bench_test.go checks the two agree), and
// later issues refer to them.

// Workload names.
const (
	wTrainCost   = "train-cost"
	wTrainReal   = "train-real"
	wServeOpen   = "serve-open"
	wTrainTiered = "train-tiered"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wTrainCost, "Paper headline config, cost-only compute: host time is sim handoffs, csp/sample, comm and cache split, so sim-kernel and sampling work shows here and dense-math work must not."},
	{wTrainReal, "Real fp32 forward/backward/Adam dominates host time, so nn kernel work shows here and sim-kernel work must not; the only workload with a learning signal (quality check)."},
	{wServeOpen, "Open-loop Poisson serving ladder: thousands of tiny latency-bound rounds, so per-event sim overhead and histograms dominate instead of per-edge work."},
	{wTrainTiered, "Compressed topology, out-of-core store, int8 feature codec and dynamic cache: block fetch, live codec encode and cache rebalance run every epoch, varint decode at set-up; train-cost leaves all idle."},
}

// Clocks a metric can be on.
const (
	clockHost    = "host"    // what the simulator costs to run; noisy
	clockVirtual = "virtual" // what the modelled machine would take; exact per seed
	clockNone    = "-"       // counts, ratios of counts, model quality
)

// metricDef describes one reported number. Bound is only meaningful for
// end-to-end metrics. On lists the workloads a per-layer metric is measured
// on (nil: all four); elsewhere it is reported as 0 and left out of tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Clock  string
	Moves  string
	On     []string
}

func (m metricDef) appliesTo(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// End-to-end metrics. The issue's seventh, failed_frac, is always 0 on a
// healthy run, so it travels as the result's failed/attempted counts rather
// than as a bounded metric.
//
// A bound is the relative worsening of the median that counts as a
// regression. Each but host_s's is at least three times the spread (quartile
// distance over median) that ten runs with ten seeds showed on the noisiest
// workload: host_alloc_mb 0.7 %, virt_latency_ms and virt_throughput 2 %
// (train-tiered's epochs differ by that much from shuffle to shuffle),
// virt_wire_mb 1 %. host_s spread 5-18 % depending on the hour, against the
// largest bound the contract allows. For one seed the virtual metrics repeat
// exactly, and -verify-repeat holds them to a gap of 0.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockHost},
	{Name: "host_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockHost},
	{Name: "host_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02, Clock: clockHost},
	{Name: "virt_latency_ms", Unit: "ms", Better: "lower", Bound: 0.08, Clock: clockVirtual},
	{Name: "virt_throughput", Unit: "1/s", Better: "higher", Bound: 0.08, Clock: clockVirtual},
	{Name: "virt_wire_mb", Unit: "MB", Better: "lower", Bound: 0.03, Clock: clockVirtual},
}

var (
	trainOnly  = []string{wTrainCost, wTrainReal, wTrainTiered}
	serveOnly  = []string{wServeOpen}
	tieredOnly = []string{wTrainTiered}
	realOnly   = []string{wTrainReal}
	costOnly   = []string{wTrainCost}
)

// Per-layer metrics, grouped by the repo's modules.
var perLayerDefs = []metricDef{
	// gen, partition, train, core: where set-up time goes.
	{Name: "gen.generate_s", Unit: "s", Better: "lower", Clock: clockHost, Moves: "setup_s"},
	{Name: "partition.metis_s", Unit: "s", Better: "lower", Clock: clockHost, Moves: "setup_s"},
	{Name: "partition.edge_cut_frac", Unit: "frac", Better: "lower", Clock: clockNone, Moves: "virt_wire_mb"},
	{Name: "train.prepare_s", Unit: "s", Better: "lower", Clock: clockHost, Moves: "setup_s"},
	{Name: "core.build_s", Unit: "s", Better: "lower", Clock: clockHost, Moves: "setup_s"},

	// sim: synthetic driver with a known event count.
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-cost, serve-open"},
	{Name: "sim.sleep_handoff_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "host_s on train-cost, serve-open"},
	{Name: "sim.queue_op_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "host_s on train-*"},
	{Name: "sim.resource_use_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "host_s on train-cost, serve-open"},
	{Name: "sim.wait_timeout_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "host_s on serve-open"},
	{Name: "sim.allocs_per_event", Unit: "allocs/op", Better: "lower", Clock: clockHost, Moves: "host_alloc_mb"},
	{Name: "sim.parallel_speedup_x", Unit: "x", Better: "higher", Clock: clockHost, Moves: "none end to end (Parallel is 1 there)"},

	// sample: the single-GPU reference sampler over the workload's batches.
	{Name: "sample.edges_per_s", Unit: "edges/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-cost, train-tiered"},
	{Name: "sample.allocs_per_batch", Unit: "allocs/op", Better: "lower", Clock: clockHost, Moves: "host_alloc_mb"},
	{Name: "sample.dedup_nodes_per_s", Unit: "nodes/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-cost, train-tiered"},

	// csp: collective sampling on all ranks of a bare machine.
	{Name: "csp.batch_host_ms", Unit: "ms", Better: "lower", Clock: clockHost, Moves: "host_s on train-cost"},
	{Name: "csp.edges_per_s", Unit: "edges/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-cost"},
	{Name: "csp.overhead_x", Unit: "x", Better: "lower", Clock: clockHost, Moves: "host_s on train-cost"},
	{Name: "csp.local_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_wire_mb"},

	// comm: collectives on a bare machine, and the traced repetition's wire.
	{Name: "comm.alltoall_ns_per_call", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "host_s on train-cost"},
	{Name: "comm.allreduce_mb_per_s", Unit: "MB/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-real"},
	{Name: "comm.allocs_per_call", Unit: "allocs/op", Better: "lower", Clock: clockHost, Moves: "host_alloc_mb"},
	{Name: "comm.wire_sample_mb", Unit: "MB", Better: "lower", Clock: clockVirtual, Moves: "virt_wire_mb"},
	{Name: "comm.wire_feature_mb", Unit: "MB", Better: "lower", Clock: clockVirtual, Moves: "virt_wire_mb, virt_latency_ms"},
	{Name: "comm.wire_grad_mb", Unit: "MB", Better: "lower", Clock: clockVirtual, Moves: "virt_wire_mb", On: trainOnly},
	{Name: "comm.ccc_wait_s", Unit: "s", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms"},
	{Name: "comm.hidden_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_latency_ms on train-*"},
	{Name: "comm.compress_ratio_grad_x", Unit: "x", Better: "higher", Clock: clockVirtual, Moves: "virt_wire_mb", On: trainOnly},
	{Name: "comm.compress_ratio_feat_x", Unit: "x", Better: "higher", Clock: clockVirtual, Moves: "virt_wire_mb", On: tieredOnly},

	// compress: codecs over a vector of the workload's gradient length.
	{Name: "compress.int8_encode_gb_per_s", Unit: "GB/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-tiered, train-real"},
	{Name: "compress.int8_decode_gb_per_s", Unit: "GB/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-tiered, train-real"},
	{Name: "compress.fp16_encode_gb_per_s", Unit: "GB/s", Better: "higher", Clock: clockHost, Moves: "none (no workload selects fp16)"},
	{Name: "compress.topk_encode_gb_per_s", Unit: "GB/s", Better: "higher", Clock: clockHost, Moves: "none (no workload selects topk)"},
	{Name: "compress.allocs_per_encode", Unit: "allocs/op", Better: "lower", Clock: clockHost, Moves: "host_alloc_mb on train-tiered"},

	// graph: adjacency reads over the nodes the workload's sampler expands.
	{Name: "graph.csr_neighbors_edges_per_s", Unit: "edges/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-cost"},
	{Name: "graph.compressed_decode_edges_per_s", Unit: "edges/s", Better: "higher", Clock: clockHost, Moves: "setup_s on train-tiered (patches are decoded once, at build)"},
	{Name: "graph.compress_ratio_x", Unit: "x", Better: "higher", Clock: clockNone, Moves: "none (resident bytes)"},

	// featstore, cache.
	{Name: "featstore.gather_gb_per_s", Unit: "GB/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-real"},
	{Name: "featstore.split_rows_per_s", Unit: "rows/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-cost, train-tiered"},
	{Name: "cache.split_rows_per_s", Unit: "rows/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-cost, train-tiered"},
	{Name: "cache.rebalance_host_ms", Unit: "ms", Better: "lower", Clock: clockHost, Moves: "host_s on train-tiered"},
	{Name: "cache.local_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_latency_ms, virt_wire_mb"},
	{Name: "cache.peer_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_latency_ms, virt_wire_mb"},
	{Name: "cache.host_frac", Unit: "frac", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms, virt_wire_mb"},
	{Name: "cache.promoted_rows", Unit: "count", Better: "higher", Clock: clockVirtual, Moves: "virt_latency_ms on train-tiered", On: tieredOnly},

	// store: the out-of-core tier.
	{Name: "store.hit_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_latency_ms on train-tiered", On: tieredOnly},
	{Name: "store.prefetch_useful_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_latency_ms on train-tiered", On: tieredOnly},
	{Name: "store.fetch_mb", Unit: "MB", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms on train-tiered", On: tieredOnly},
	{Name: "store.stall_s", Unit: "s", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms on train-tiered", On: tieredOnly},

	// nn: dense math on the workload's model and one of its batches.
	{Name: "nn.matmul_gflops", Unit: "GFLOP/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-real"},
	{Name: "nn.forward_gflops", Unit: "GFLOP/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-real"},
	{Name: "nn.trainstep_gflops", Unit: "GFLOP/s", Better: "higher", Clock: clockHost, Moves: "host_s on train-real"},
	{Name: "nn.allocs_per_step", Unit: "allocs/op", Better: "lower", Clock: clockHost, Moves: "host_alloc_mb on train-real"},
	{Name: "nn.train_loss", Unit: "loss", Better: "lower", Clock: clockNone, Moves: "must not move when arithmetic order is kept", On: realOnly},
	{Name: "nn.val_acc", Unit: "frac", Better: "higher", Clock: clockNone, Moves: "must not move when arithmetic order is kept", On: realOnly},

	// pipeline, hw, prof: the repo's own tracer on one repetition.
	{Name: "pipeline.sample_busy_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_latency_ms", On: trainOnly},
	{Name: "pipeline.load_busy_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_latency_ms", On: trainOnly},
	{Name: "pipeline.train_busy_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_latency_ms", On: trainOnly},
	{Name: "pipeline.queue_wait_s", Unit: "s", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms", On: trainOnly},
	{Name: "pipeline.overlap_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_throughput", On: trainOnly},
	{Name: "hw.gpu_util_frac", Unit: "frac", Better: "higher", Clock: clockVirtual, Moves: "virt_throughput"},
	{Name: "prof.critical_stage_s", Unit: "s", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms"},
	{Name: "prof.critical_comm_s", Unit: "s", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms"},
	{Name: "prof.critical_kernel_s", Unit: "s", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms"},
	{Name: "prof.critical_idle_s", Unit: "s", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms"},

	// serve, metrics.
	{Name: "serve.light.p50_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms", On: serveOnly},
	{Name: "serve.light.p99_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms", On: serveOnly},
	{Name: "serve.nominal.p50_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms", On: serveOnly},
	{Name: "serve.nominal.mean_batch", Unit: "count", Better: "higher", Clock: clockVirtual, Moves: "virt_throughput", On: serveOnly},
	{Name: "serve.nominal.rounds", Unit: "count", Better: "lower", Clock: clockVirtual, Moves: "host_s", On: serveOnly},
	{Name: "serve.overload.p99_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "moves before virt_latency_ms does", On: serveOnly},
	{Name: "serve.overload.shed_frac", Unit: "frac", Better: "lower", Clock: clockVirtual, Moves: "moves before failed does", On: serveOnly},
	{Name: "serve.host_us_per_req", Unit: "us/req", Better: "lower", Clock: clockHost, Moves: "host_s", On: serveOnly},
	{Name: "metrics.hist_observe_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "host_s on serve-open"},

	// telemetry, trace: what the instrumentation itself costs.
	{Name: "telemetry.stage_queue_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms", On: serveOnly},
	{Name: "telemetry.stage_sample_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms", On: serveOnly},
	{Name: "telemetry.stage_gather_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms", On: serveOnly},
	{Name: "telemetry.stage_forward_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "virt_latency_ms", On: serveOnly},
	{Name: "telemetry.overhead_frac", Unit: "frac", Better: "lower", Clock: clockHost, Moves: "none (hub is off end to end)", On: serveOnly},
	{Name: "telemetry.scrape_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "none (hub is off end to end)"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Clock: clockHost, Moves: "none (tracer is off end to end)"},
	{Name: "trace.emit_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "none (tracer is off end to end)"},
	{Name: "trace.nil_emit_allocs", Unit: "allocs/op", Better: "lower", Clock: clockHost, Moves: "host_alloc_mb; must be 0"},
	{Name: "trace.events", Unit: "count", Better: "lower", Clock: clockVirtual, Moves: "none"},

	// strategy, core, fleet, baselines: guard rails for the one-execution-path
	// refactor; no end-to-end metric depends on them.
	{Name: "strategy.p3_epoch_host_s", Unit: "s", Better: "lower", Clock: clockHost, Moves: "none", On: realOnly},
	{Name: "strategy.p3_epoch_virt_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "none", On: realOnly},
	{Name: "strategy.p3_alloc_mb", Unit: "MB", Better: "lower", Clock: clockHost, Moves: "none", On: realOnly},
	{Name: "core.multi_epoch_host_s", Unit: "s", Better: "lower", Clock: clockHost, Moves: "none", On: realOnly},
	{Name: "core.multi_epoch_virt_ms", Unit: "ms", Better: "lower", Clock: clockVirtual, Moves: "none", On: realOnly},
	{Name: "fleet.host_us_per_req", Unit: "us/req", Better: "lower", Clock: clockHost, Moves: "none", On: serveOnly},
	{Name: "baselines.dgluva_speedup_x", Unit: "x", Better: "higher", Clock: clockVirtual, Moves: "none", On: costOnly},

	// attribution: share of one repetition's host time, replayed per layer.
	{Name: "share.sample", Unit: "frac", Better: "lower", Clock: clockHost, Moves: "host_s"},
	{Name: "share.featstore", Unit: "frac", Better: "lower", Clock: clockHost, Moves: "host_s"},
	{Name: "share.compress", Unit: "frac", Better: "lower", Clock: clockHost, Moves: "host_s"},
	{Name: "share.graph_decode", Unit: "frac", Better: "lower", Clock: clockHost, Moves: "host_s"},
	{Name: "share.nn", Unit: "frac", Better: "lower", Clock: clockHost, Moves: "host_s"},
	{Name: "share.des_overhead", Unit: "frac", Better: "lower", Clock: clockHost, Moves: "host_s on train-cost, serve-open"},
	{Name: "go.num_gc", Unit: "count", Better: "lower", Clock: clockHost, Moves: "host_s"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Clock: clockHost, Moves: "host_s"},
	{Name: "go.peak_rss_mb", Unit: "MB", Better: "lower", Clock: clockHost, Moves: "none"},
	{Name: "go.mallocs_per_rep", Unit: "count", Better: "lower", Clock: clockHost, Moves: "host_alloc_mb"},
	{Name: "host.calib_compute_ms", Unit: "ms", Better: "lower", Clock: clockHost, Moves: "tells machine noise from a code change"},
	{Name: "host.calib_memory_ms", Unit: "ms", Better: "lower", Clock: clockHost, Moves: "tells machine noise from a code change"},
}
