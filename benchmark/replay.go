package main

import (
	"fmt"
	"reflect"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/csp"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

// Part B of the traced run: each layer's exported functions, called from
// outside on the workload's own inputs, every call inside a span.

// runProcs runs one sim process per rank to completion on eng.
func runProcs(eng *sim.Engine, n int, body func(p *sim.Proc, rank int)) error {
	for rank := 0; rank < n; rank++ {
		eng.Go(fmt.Sprintf("bench/rank%d", rank), func(p *sim.Proc) { body(p, rank) })
	}
	_, err := eng.Run()
	return err
}

// micro runs a micro-benchmark loop inside a span of its own.
func (l *layerRun) micro(layer, name string, fn func() int) microResult {
	var res microResult
	l.rec.do(layer, name, func() { res = micro(l.b.scale.microNS, fn) })
	return res
}

// replaySim drives the engine with synthetic processes whose event counts are
// known, so events/s and per-primitive costs do not depend on any layer above.
func (l *layerRun) replaySim() {
	// Each call of a loop builds a fresh engine, spawns its processes and runs
	// them to completion; ops is the number of operations they perform.
	loop := func(name string, ops int, spawn func(eng *sim.Engine)) microResult {
		return l.micro("sim", name, func() int {
			eng := sim.NewEngine()
			spawn(eng)
			mustRun(eng)
			return ops
		})
	}
	const procs, sleeps = 16, 500
	res := loop("sleep_storm", procs*sleeps, func(eng *sim.Engine) {
		for i := 0; i < procs; i++ {
			eng.Go("p", func(p *sim.Proc) {
				for j := 0; j < sleeps; j++ {
					p.Sleep(sim.Time(1+(i*7+j)%13) * 1e-6)
				}
			})
		}
	})
	l.set("sim.events_per_s", 1e9/res.nsPerOp)
	l.set("sim.allocs_per_event", res.allocsPerOp)

	l.set("sim.sleep_handoff_ns", loop("sleep_handoff", 2000, func(eng *sim.Engine) {
		eng.Go("p", func(p *sim.Proc) {
			for j := 0; j < 2000; j++ {
				p.Sleep(1e-6)
			}
		})
	}).nsPerOp)

	l.set("sim.queue_op_ns", loop("queue", 1000, func(eng *sim.Engine) {
		q := eng.NewQueue(2) // the pipeline's queue capacity
		eng.Go("producer", func(p *sim.Proc) {
			for j := 0; j < 1000; j++ {
				q.Put(p, j)
			}
			q.Close()
		})
		eng.Go("consumer", func(p *sim.Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
	}).nsPerOp)

	l.set("sim.resource_use_ns", loop("resource", 8*250, func(eng *sim.Engine) {
		r := eng.NewResource(2)
		for i := 0; i < 8; i++ {
			eng.Go("p", func(p *sim.Proc) {
				for j := 0; j < 250; j++ {
					r.Use(p, 1, 1e-6)
				}
			})
		}
	}).nsPerOp)

	l.set("sim.wait_timeout_ns", loop("wait_timeout", 2000, func(eng *sim.Engine) {
		never := eng.NewEvent()
		eng.Go("p", func(p *sim.Proc) {
			for j := 0; j < 2000; j++ {
				never.WaitTimeout(p, 1e-6)
			}
		})
	}).nsPerOp)

	// ParallelGroup.Run on CPU-bound units: one thread against the machine's.
	units := make([]func(), 8)
	sinks := make([]float64, len(units))
	for i := range units {
		units[i] = func() {
			x := 1.0
			for k := 0; k < 400_000; k++ {
				x = x*1.0000001 + 1e-9
			}
			sinks[i] = x
		}
	}
	groupTime := func(name string, threads int) float64 {
		eng := sim.NewEngine()
		eng.SetParallelism(threads)
		g := eng.NewParallelGroup()
		return l.micro("sim", name, func() int { g.Run(units); return 1 }).nsPerOp
	}
	l.set("sim.parallel_speedup_x", groupTime("parallel_group_1", 1)/groupTime("parallel_group_n", offloadThreads()))
}

// mustRun runs a synthetic engine; its processes cannot deadlock or fail, so
// an error here is a bug in the benchmark's own driver.
func mustRun(eng *sim.Engine) {
	if _, err := eng.Run(); err != nil {
		panic(fmt.Sprintf("benchmark: synthetic sim driver: %v", err))
	}
}

// replaySample runs the single-GPU reference sampler over every batch of the
// repetition and keeps what the later replays need. It returns the host
// seconds the sampling took.
func (l *layerRun) replaySample() float64 {
	g := l.b.data.G
	dedup := sample.NewDeduper(g.NumNodes())
	keepAll := l.b.trainOptions().RealCompute
	batches := 0
	cost, _ := timed(func() error {
		l.sampleS = l.rec.do("sample", "ReferenceInto", func() {
			for si, row := range l.steps {
				for _, rb := range row {
					mb := sample.ReferenceInto(dedup, g, rb.seeds, l.scfg, rb.seed)
					batches++
					l.edges += mb.NumSampledEdges()
					l.inputs = append(l.inputs, mb.InputNodes())
					l.ranks = append(l.ranks, rb.rank)
					for _, blk := range mb.Blocks {
						l.frontiers = append(l.frontiers, blk.Dst)
					}
					if si == 0 {
						l.firstStep = append(l.firstStep, mb)
					}
					if keepAll {
						l.allMB = append(l.allMB, mb)
					}
				}
			}
		})
		return nil
	})
	l.set("sample.edges_per_s", float64(l.edges)/l.sampleS)
	l.set("sample.allocs_per_batch", float64(cost.mallocs)/float64(batches))

	// Frontier dedup alone: rebuild the first step's blocks from their raw
	// (dst, counts, samples) form.
	type raw struct {
		dst     []graph.NodeID
		counts  []int32
		samples []graph.NodeID
	}
	var raws []raw
	entries := 0
	for _, mb := range l.firstStep {
		for _, blk := range mb.Blocks {
			counts := make([]int32, len(blk.Dst))
			for i := range counts {
				counts[i] = blk.SrcPtr[i+1] - blk.SrcPtr[i]
			}
			raws = append(raws, raw{blk.Dst, counts, blk.Src})
			entries += len(blk.Src)
		}
	}
	res := l.micro("sample", "Deduper.BuildBlock", func() int {
		for _, r := range raws {
			dedup.BuildBlock(r.dst, r.counts, r.samples)
		}
		return max(entries, 1)
	})
	l.set("sample.dedup_nodes_per_s", 1e9/res.nsPerOp)
	return l.sampleS
}

// bareMachine is a machine with nothing on it but the fabric model, sized and
// scaled like the workload's.
func (l *layerRun) bareMachine() *hw.Machine {
	gpu := scaledV100()
	if l.b.data.GPUMemBytes > 0 {
		gpu.MemBytes = l.b.data.GPUMemBytes
	}
	return hw.NewMachineScaled(l.b.spec.gpus, gpu, hw.XeonE5(), latencyScale)
}

// replayCSP samples the same batches collectively on all ranks of a bare
// machine and checks the result against the reference sampler bit for bit.
func (l *layerRun) replayCSP() error {
	d := l.b.data
	m := l.bareMachine()
	world, err := csp.NewWorld(m, d.G, d.Offsets)
	if err != nil {
		return fmt.Errorf("csp replay: %w", err)
	}
	shared := l.b.spec.options == nil // serving draws one seed per round
	got := make([]*sample.MiniBatch, l.b.spec.gpus)
	var runErr error
	cspS := l.rec.do("csp", "World.SampleBatch", func() {
		runErr = runProcs(m.Eng, l.b.spec.gpus, func(p *sim.Proc, rank int) {
			for si, row := range l.steps {
				rb := row[rank]
				var mb *sample.MiniBatch
				if shared {
					mb = world.SampleBatchShared(p, rank, rb.seeds, l.scfg, rb.seed)
				} else {
					mb = world.SampleBatch(p, rank, rb.seeds, l.scfg, rb.seed)
				}
				if si == 0 {
					got[rank] = mb
				}
			}
		})
	})
	if runErr != nil {
		return fmt.Errorf("csp replay: %w", runErr)
	}
	l.set("csp.batch_host_ms", cspS/float64(len(l.steps))*1e3)
	l.set("csp.edges_per_s", float64(l.edges)/cspS)
	l.set("csp.overhead_x", cspS/l.sampleS)

	same, valid := true, true
	for rank, mb := range got {
		ref := l.firstStep[rank]
		if shared {
			// The reference sampler keys draws by the batch seed alone, which
			// is what a shared seed is.
			ref = sample.Reference(d.G, l.steps[0][rank].seeds, l.scfg, l.steps[0][rank].seed)
		}
		same = same && reflect.DeepEqual(mb.Blocks, ref.Blocks)
		valid = valid && mb.Validate() == nil
	}
	l.ck.add("CSP mini-batches equal sample.Reference bit for bit", same, "blocks differ")
	l.ck.add("CSP mini-batches pass Validate", valid, "Validate failed")

	// Sampling tasks run on the owner of the expanded node; the rest travel.
	var local, total int64
	fi := 0
	for bi := range l.inputs {
		for range l.scfg.Layers() {
			for _, v := range l.frontiers[fi] {
				if world.Owner(v) == l.ranks[bi] {
					local++
				}
			}
			total += int64(len(l.frontiers[fi]))
			fi++
		}
	}
	l.set("csp.local_frac", float64(local)/float64(max(total, 1)))
	return nil
}

// replayGraph reads the adjacency of every node the sampler expanded, from
// the flat CSR and from its varint-compressed form. It returns the host
// seconds of the flat reads: csp extracts every patch into flat arrays when
// the world is built, compressed source or not, so repetitions never decode
// varints on the host — that cost sits in core.build_s, and in virtual time
// as the decode kernel.
func (l *layerRun) replayGraph() float64 {
	g := l.b.data.G
	var comp *graph.CompressedCSR
	l.rec.do("graph", "Compress", func() { comp = graph.Compress(g) })
	checkTopology(l.ck, g, comp)
	l.set("graph.compress_ratio_x", float64(g.TopologyBytes())/float64(comp.TopologyBytes()))
	walk := func(name string, t graph.Topology) (seconds float64, edges int64) {
		seconds = l.rec.do("graph", name, func() {
			for _, f := range l.frontiers {
				for _, v := range f {
					edges += int64(len(t.Neighbors(v)))
				}
			}
		})
		return seconds, edges
	}
	flatS, flatEdges := walk("CSR.Neighbors", g)
	compS, compEdges := walk("CompressedCSR.Neighbors", comp)
	l.ck.add("compressed and flat adjacency have the same degrees", flatEdges == compEdges,
		fmt.Sprintf("%d != %d edges", compEdges, flatEdges))
	l.set("graph.csr_neighbors_edges_per_s", float64(flatEdges)/flatS)
	l.set("graph.compressed_decode_edges_per_s", float64(compEdges)/compS)
	return flatS
}

// replayFeatures splits and gathers every batch's input nodes through the
// workload's own feature store and a fresh cache manager over it, then runs
// that manager's rebalance. It returns the host seconds of the feature path
// and of the feature codec for one repetition.
func (l *layerRun) replayFeatures() (featS, codecS float64, err error) {
	d := l.b.data
	store := l.b.featureStore()
	featCodec, real := l.b.trainOptions().FeatCodec, l.b.trainOptions().RealCompute
	var rows int64
	for _, in := range l.inputs {
		rows += int64(len(in))
	}
	splitS := l.rec.do("featstore", "Store.Split", func() {
		for i, in := range l.inputs {
			store.Split(in, l.ranks[i])
		}
	})
	l.set("featstore.split_rows_per_s", float64(rows)/splitS)

	mgr := cache.New(store, d.G, d.Offsets, cache.Config{Policy: cache.LFUDecay})
	remotes := make([][][]graph.NodeID, len(l.inputs))
	mgrS := l.rec.do("cache", "Manager.Split", func() {
		for i, in := range l.inputs {
			local, remote, host := mgr.Split(in, l.ranks[i])
			mgr.Account(l.ranks[i], cache.CountTiers(local, remote, host))
			remotes[i] = remote
		}
	})
	l.set("cache.split_rows_per_s", float64(rows)/mgrS)
	featS = mgrS

	// Gather moves real rows only under real compute; the rate is measured
	// on the first step everywhere.
	var gatherBytes int64
	gatherS := l.rec.do("featstore", "Store.Gather", func() {
		for i, in := range l.inputs {
			if !real && i >= len(l.firstStep) {
				break
			}
			store.Gather(in)
			gatherBytes += int64(len(in)) * int64(store.RowBytes())
		}
	})
	l.set("featstore.gather_gb_per_s", float64(gatherBytes)/gatherS/1e9)
	if real {
		featS += gatherS
	}

	// The feature codec encodes every peer reply live: as many rows as the
	// requester asked that peer for.
	if featCodec != nil {
		zeros := make([]float32, 0)
		out := make([]float32, 0)
		codecS = l.rec.do("compress", "feature_replies", func() {
			for _, remote := range remotes {
				for _, ids := range remote {
					n := len(ids) * d.FeatDim
					if n == 0 {
						continue
					}
					if cap(zeros) < n {
						zeros, out = make([]float32, n), make([]float32, n)
					}
					featCodec.Decode(featCodec.Encode(zeros[:n]), out[:n])
				}
			}
		})
	}

	// Rebalance acts on the hotness the splits above recorded.
	m := l.bareMachine()
	var runErr error
	rebS := l.rec.do("cache", "Manager.Rebalance", func() {
		m.Eng.Go("bench/rebalance", func(p *sim.Proc) { mgr.Rebalance(p, m.Fabric) })
		_, runErr = m.Eng.Run()
	})
	if runErr != nil {
		return 0, 0, fmt.Errorf("cache replay: %w", runErr)
	}
	l.set("cache.rebalance_host_ms", rebS*1e3)
	return featS, codecS, nil
}

// gradientVector is a random vector of the workload's gradient length.
func (l *layerRun) gradientVector() []float32 {
	r := rng.New(l.b.seed)
	vec := make([]float32, nn.NewModel(l.model, l.b.seed).ParamCount())
	for i := range vec {
		vec[i] = float32(r.NormFloat64())
	}
	return vec
}

// replayCodecs times the codecs on a vector of the workload's gradient
// length. It returns the host seconds the live gradient codec costs one
// repetition.
func (l *layerRun) replayCodecs() (gradS float64) {
	vec := l.gradientVector()
	out := make([]float32, len(vec))
	rate := func(name string, fn func()) microResult {
		return l.micro("compress", name, func() int { fn(); return 1 })
	}
	gbps := func(res microResult) float64 { return float64(len(vec)) * 4 / res.nsPerOp }
	int8c := compress.NewInt8(l.b.seed)
	enc := rate("Int8.Encode", func() { int8c.Encode(vec) })
	encoded := int8c.Encode(vec)
	dec := rate("Int8.Decode", func() { int8c.Decode(encoded, out) })
	l.set("compress.int8_encode_gb_per_s", gbps(enc))
	l.set("compress.int8_decode_gb_per_s", gbps(dec))
	l.set("compress.allocs_per_encode", enc.allocsPerOp)
	l.set("compress.fp16_encode_gb_per_s", gbps(rate("FP16.Encode", func() { compress.FP16{}.Encode(vec) })))
	topk := compress.NewTopK(0.1)
	l.set("compress.topk_encode_gb_per_s", gbps(rate("TopK.Encode", func() { topk.Encode(vec) })))
	checkCodecs(l.ck, l.b.seed)

	// Under real compute every rank quantises and dequantises its gradient
	// each step; cost-only runs reuse one static encode, which costs nothing
	// per repetition.
	if o := l.b.trainOptions(); o.RealCompute && o.GradCodec != nil {
		gradS = float64(len(l.steps)*l.b.spec.gpus) * (enc.nsPerOp + dec.nsPerOp) / 1e9
	}
	return gradS
}

// replayComm times the collectives on a bare machine.
func (l *layerRun) replayComm() error {
	n := l.b.spec.gpus

	// All-to-all of the id lists a load stage sends: what each rank asks its
	// peers for on the first step.
	store := l.b.featureStore()
	requests := make([][][]graph.NodeID, n)
	for rank := 0; rank < n; rank++ {
		_, requests[rank], _ = store.Split(l.inputs[rank], rank)
	}
	m := l.bareMachine()
	c := comm.New(m)
	const calls = 20
	var runErr error
	res := l.micro("comm", "AllToAll", func() int {
		if err := runProcs(m.Eng, n, func(p *sim.Proc, rank int) {
			for k := 0; k < calls; k++ {
				comm.AllToAll(c, p, rank, requests[rank], comm.Raw(4, hw.TrafficFeature))
			}
		}); err != nil {
			runErr = err
		}
		return calls * n
	})
	if runErr != nil {
		return fmt.Errorf("comm replay: %w", runErr)
	}
	l.set("comm.alltoall_ns_per_call", res.nsPerOp)
	l.set("comm.allocs_per_call", res.allocsPerOp)

	// Allreduce of a live (non-static) gradient vector under the workload's
	// gradient codec; serving has none, so it reduces raw.
	gradCodec := l.b.trainOptions().GradCodec
	vec := l.gradientVector()
	bufs := make([][]float32, n)
	for rank := range bufs {
		bufs[rank] = append([]float32(nil), vec...)
	}
	res = l.micro("comm", "AllReduceSum", func() int {
		if err := runProcs(m.Eng, n, func(p *sim.Proc, rank int) {
			c.AllReduceSum(p, rank, bufs[rank], comm.Compressed(gradCodec, hw.TrafficGradient))
		}); err != nil {
			runErr = err
		}
		return 1
	})
	if runErr != nil {
		return fmt.Errorf("comm replay: %w", runErr)
	}
	l.set("comm.allreduce_mb_per_s", float64(n)*float64(len(vec))*4/1e6/(res.nsPerOp/1e9))
	return nil
}

// replayNN times the dense kernels on the workload's model and a batch of its
// own. It returns the host seconds the model math costs one repetition.
func (l *layerRun) replayNN() float64 {
	d := l.b.data
	real := len(l.allMB) > 0
	// A full cost-only batch at hidden 256 is seconds of naive fp32 math that
	// the workload itself never runs, so the rate is taken on a slice of it.
	mb := l.firstStep[0]
	for _, cand := range l.firstStep {
		if len(cand.Seeds) > len(mb.Seeds) {
			mb = cand
		}
	}
	if !real && len(mb.Seeds) > 16 {
		mb = sample.Reference(d.G, mb.Seeds[:16], l.scfg, mb.Seed)
	}
	feats := train.GatherFeatures(d, mb)
	labels := train.SeedLabels(d, mb)
	model := nn.NewModel(l.model, l.b.seed)

	a := nn.NewMatrix(min(len(mb.InputNodes()), 4096), l.model.InDim)
	copy(a.Data, feats)
	w := nn.NewMatrix(l.model.InDim, l.model.Hidden)
	w.GlorotInit(rng.New(l.b.seed))
	prod := nn.NewMatrix(a.R, w.C)
	gflops := func(name string, fn func()) (float64, microResult) {
		f0 := nn.FlopCount()
		res := l.micro("nn", name, func() int { fn(); return 1 })
		return float64(nn.FlopCount()-f0) / res.seconds / 1e9, res
	}
	rate, _ := gflops("MatMul", func() { nn.MatMul(prod, a, w) })
	l.set("nn.matmul_gflops", rate)
	rate, _ = gflops("Model.Forward", func() { model.Forward(mb, feats) })
	l.set("nn.forward_gflops", rate)
	rate, res := gflops("Model.TrainStep", func() {
		model.ZeroGrads()
		model.TrainStep(mb, feats, labels)
	})
	l.set("nn.trainstep_gflops", rate)
	l.set("nn.allocs_per_step", res.allocsPerOp)

	if !real {
		// Cost-only: the model layer only prices the batch.
		return l.rec.do("nn", "Nominal", func() {
			for range l.steps {
				for _, mb := range l.firstStep {
					nn.NominalFlops(l.model, mb)
					nn.NominalAggBytes(l.model, mb)
				}
			}
		})
	}
	opt := nn.NewAdam(0.003)
	grad := make([]float32, model.ParamCount())
	return l.rec.do("nn", "epoch_math", func() {
		for _, mb := range l.allMB {
			model.ZeroGrads()
			if len(mb.Seeds) > 0 {
				model.TrainStep(mb, train.GatherFeatures(d, mb), train.SeedLabels(d, mb))
			}
			model.GradVector(grad)
			model.SetGradVector(grad)
			opt.Step(model)
		}
	})
}

// replayInstrumentation prices the repo's own measurement code: histogram
// observes, tracer emits (and that a nil tracer allocates nothing), telemetry
// scrapes.
func (l *layerRun) replayInstrumentation() {
	h := metrics.New()
	l.set("metrics.hist_observe_ns", l.micro("metrics", "Histogram.Observe", func() int {
		for i := 0; i < 1000; i++ {
			h.Observe(1e-3 + float64(i)*1e-6)
		}
		return 1000
	}).nsPerOp)

	emit := func(name string, tr *trace.Tracer) microResult {
		return l.micro("trace", name, func() int {
			for i := 0; i < 1000; i++ {
				tr.Complete("span", "stage", i&7, trace.LaneKernels, float64(i), float64(i+1), nil)
			}
			return 1000
		})
	}
	tr := trace.New()
	tr.SetMaxEvents(1 << 16) // a ring, so the loop's memory stays bounded
	l.set("trace.emit_ns", emit("Tracer.Complete", tr).nsPerOp)
	nilAllocs := emit("nil Tracer.Complete", nil).allocsPerOp
	l.set("trace.nil_emit_allocs", nilAllocs)
	l.ck.add("a nil tracer allocates nothing per emit", nilAllocs < 0.01, fmt.Sprintf("%.3f allocs/op", nilAllocs))

	l.set("telemetry.scrape_ns", l.micro("telemetry", "scrape", func() int {
		eng := sim.NewEngine()
		hub := telemetry.New(telemetry.Config{Interval: 1e-3})
		for i := 0; i < 8; i++ {
			hub.Gauge(fmt.Sprintf("bench/g%d", i), func(now sim.Time) float64 { return float64(now) })
		}
		hub.Start(eng)
		eng.Go("horizon", func(p *sim.Proc) { p.Sleep(0.5) })
		mustRun(eng)
		return hub.Finish(0.5).Scrapes
	}).nsPerOp)
}
