package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/train"
)

// traced is the result of one workload's traced run: every per-layer metric,
// the checks it made, and the cost of tracing itself.
type traced struct {
	Values       map[string]float64
	Checks       []check
	HostUntraced float64 // fastest of the untraced repetitions run beside the traced ones
	HostTraced   float64 // fastest repetition with the repo's tracer attached
	SpansFile    string
	Notes        []string
}

// layerRun carries the state the per-layer measurements share.
type layerRun struct {
	b    *built
	rec  *recorder
	ck   *checker
	vals map[string]float64
	out  *traced

	// The base system's untraced repetitions: their virtual results by
	// repetition index, the fastest one's host seconds, and the next index.
	untraced []facts
	hostMin  float64
	nextRep  int

	scfg  sample.Config
	model nn.Config
	steps [][]replayBatch
	// Kept from the sample replay: every batch's input nodes and expanded
	// nodes (the Dst of each block), and the first step's full mini-batches.
	inputs    [][]graph.NodeID // one per batch, in steps order
	ranks     []int
	frontiers [][]graph.NodeID
	firstStep []*sample.MiniBatch
	allMB     []*sample.MiniBatch // every batch; only kept for real compute
	edges     int64
	sampleS   float64
}

func (l *layerRun) set(name string, v float64) { l.vals[name] = v }

// offloadThreads is the Parallel setting of the determinism cross-check: the
// machine's cores, but at least 2 so the offload path really runs.
func offloadThreads() int { return max(2, runtime.NumCPU()) }

// runTraced produces the per-layer metrics of one workload. Part A attaches
// the repo's own virtual-time tracer to one extra repetition; Part B replays
// the workload's real inputs through each layer's exported functions on a
// bare engine, each call inside a benchmark-side span.
func runTraced(sp spec, sc scale, seed uint64, outDir string) (*traced, error) {
	out := &traced{Values: map[string]float64{}}
	l := &layerRun{rec: newRecorder(sp.name), ck: &checker{}, vals: out.Values, out: out}
	calibC0, calibM0 := calibrate()

	// Set-up, one span per step, plus METIS and its edge cut on their own.
	b, err := setup(l.rec, sp, sc, seed)
	if err != nil {
		return nil, err
	}
	l.b = b
	l.set("gen.generate_s", b.times.generate)
	l.set("train.prepare_s", b.times.prepare)
	l.set("core.build_s", b.times.build)
	var part *partition.Result
	l.set("partition.metis_s", l.rec.do("partition", "Metis", func() { part = partition.Metis(b.raw.G, sp.gpus, partitionSeed) }))
	_, cutFrac := partition.EdgeCut(b.raw.G, part)
	l.set("partition.edge_cut_frac", cutFrac)

	// Untraced repetitions in this process: what the traced and the offloaded
	// repetitions must reproduce, and the Go runtime's cost of one.
	warm, err := b.inst.rep(0)
	if err != nil {
		return nil, err
	}
	l.untraced = []facts{warm}
	l.hostMin = math.Inf(1)
	var gcs, pauses, mallocs float64
	const baseReps = 3
	for i := 1; i <= baseReps; i++ {
		f, cost, err := timedRep(b.inst, i)
		if err != nil {
			return nil, err
		}
		l.untraced = append(l.untraced, f)
		l.hostMin = min(l.hostMin, cost.seconds)
		gcs += float64(cost.numGC)
		pauses += cost.gcPauseS
		mallocs += float64(cost.mallocs)
	}
	l.nextRep = baseReps + 1
	l.set("go.num_gc", gcs/baseReps)
	l.set("go.gc_pause_ms", pauses/baseReps*1e3)
	l.set("go.mallocs_per_rep", mallocs/baseReps)

	if err := l.partA(); err != nil {
		return nil, err
	}
	if err := l.partB(); err != nil {
		return nil, err
	}

	calibC1, calibM1 := calibrate()
	l.set("host.calib_compute_ms", min(calibC0, calibC1))
	l.set("host.calib_memory_ms", min(calibM0, calibM1))
	out.Notes = append(out.Notes, fmt.Sprintf("calibration before/after: compute %.2f/%.2f ms, memory %.2f/%.2f ms",
		calibC0, calibC1, calibM0, calibM1))
	l.set("go.peak_rss_mb", peakRSSMB())

	if out.SpansFile, err = l.rec.write(outDir); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out.Checks = l.ck.list
	return out, nil
}

// partA repeats the base system's repetitions on two fresh systems — one
// with the repo's tracer attached for repetition 2, one with data work
// offloaded to OS threads — checks both reproduce the untraced virtual results
// bit for bit, and reads the tracer.
//
// Host time on this box drifts in phases of tens of seconds, so a traced
// repetition is only comparable with untraced ones run right beside it: the
// system alternates untraced, traced, untraced, traced, untraced, and the
// tracer's overhead is the faster traced repetition against the fastest
// untraced one.
func (l *layerRun) partA() error {
	b := l.b
	tracedInst, err := newInstance(b, 1)
	if err != nil {
		return err
	}
	if _, err := tracedInst.rep(0); err != nil {
		return err
	}
	tr := trace.New() // repetition 2: the one prof analyses
	var tracedEpoch train.EpochStats
	l.out.HostTraced, l.out.HostUntraced = math.Inf(1), math.Inf(1)
	for i := 1; i <= 5; i++ {
		switch i {
		case 2:
			tracedInst.attach(tr)
		case 4:
			tracedInst.attach(trace.New())
		default:
			tracedInst.attach(nil)
		}
		var f facts
		var cost hostCost
		if i%2 == 0 {
			l.rec.do("trace", "traced_repetition", func() { f, cost, err = timedRep(tracedInst, i) })
			l.out.HostTraced = min(l.out.HostTraced, cost.seconds)
		} else {
			f, cost, err = timedRep(tracedInst, i)
			l.out.HostUntraced = min(l.out.HostUntraced, cost.seconds)
		}
		if err != nil {
			return err
		}
		if i == 2 {
			l.ck.equal("virtual results identical with the tracer attached", l.untraced[2], f)
			if ti, ok := tracedInst.(*trainInstance); ok {
				tracedEpoch = ti.last
			}
		}
	}
	l.set("trace.overhead_frac", l.out.HostTraced/l.out.HostUntraced-1)
	l.set("trace.events", float64(tr.Len()))

	par, err := newInstance(b, offloadThreads())
	if err != nil {
		return err
	}
	if _, err := par.rep(0); err != nil {
		return err
	}
	offloaded, err := par.rep(1)
	if err != nil {
		return err
	}
	l.ck.equal(fmt.Sprintf("virtual results identical at Parallel = %d", offloadThreads()), l.untraced[1], offloaded)

	var profile *prof.Profile
	l.rec.do("prof", "Analyze", func() { profile = prof.Analyze(prof.FromTracer(tr)) })
	err = profile.Validate()
	l.ck.add("the traced run's prof report passes Validate", err == nil, fmt.Sprint(err))
	window := profile.Window.Dur()
	stage, commS, kernel, idle := criticalBreakdown(prof.FromTracer(tr).Spans(), profile.CriticalPath)
	l.set("prof.critical_stage_s", stage)
	l.set("prof.critical_comm_s", commS)
	l.set("prof.critical_kernel_s", kernel)
	l.set("prof.critical_idle_s", idle)
	l.ck.add("prof.critical_* sum to the traced window", math.Abs(stage+commS+kernel+idle-window) <= 1e-9*max(window, 1),
		fmt.Sprintf("%.9g + %.9g + %.9g + %.9g != %.9g", stage, commS, kernel, idle, window))
	l.set("comm.ccc_wait_s", profile.Stalls.CCCWait)
	l.set("comm.hidden_frac", profile.CommComputeOverlap)
	laneUtil := func(tid int) float64 {
		var sum float64
		n := 0
		for _, ls := range profile.Lanes {
			if ls.Tid == tid {
				sum += ls.Util
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	l.set("hw.gpu_util_frac", laneUtil(trace.LaneKernels))

	switch inst := tracedInst.(type) {
	case *trainInstance:
		st := tracedEpoch
		l.ck.add("the prof window covers the traced epoch", math.Abs(window-float64(st.EpochTime)) <= 0.05*float64(st.EpochTime),
			fmt.Sprintf("window %.6g s, epoch %.6g s", window, float64(st.EpochTime)))
		l.set("pipeline.sample_busy_frac", laneUtil(trace.LaneSampler))
		l.set("pipeline.load_busy_frac", laneUtil(trace.LaneLoader))
		l.set("pipeline.train_busy_frac", laneUtil(trace.LaneTrainer))
		l.set("pipeline.queue_wait_s", profile.Stalls.QueueWait)
		l.set("pipeline.overlap_frac", profile.PipelineOverlap)
		l.set("comm.wire_sample_mb", float64(st.SampleWire)/1e6)
		l.set("comm.wire_feature_mb", float64(st.FeatureWire)/1e6)
		l.set("comm.wire_grad_mb", float64(st.GradWire)/1e6)
		comp := inst.sys.Compression()
		l.set("comm.compress_ratio_grad_x", ratio(comp[hw.TrafficGradient]))
		if inst.opts.FeatCodec != nil {
			l.set("comm.compress_ratio_feat_x", ratio(comp[hw.TrafficFeature]))
		}
		setTiers(l, cache.Tiers{Local: st.CacheLocal, Peer: st.CachePeer, Host: st.CacheHost})
		if inst.opts.DynamicCache != cache.Static {
			l.set("cache.promoted_rows", float64(st.CachePromoted))
		}
		if inst.opts.OOC {
			touches := st.StoreHits + st.StoreMisses
			l.set("store.hit_frac", float64(st.StoreHits)/float64(max(touches, 1)))
			l.set("store.prefetch_useful_frac", float64(st.StorePrefetchUsed)/float64(max(st.StorePrefetchIssued, 1)))
			l.set("store.fetch_mb", float64(st.StoreDemandBytes)/1e6)
			l.set("store.stall_s", float64(st.StoreStall))
		}
		if inst.opts.RealCompute {
			// Loss of the traced epoch, accuracy after the warm-up and five
			// epochs; the end-to-end run holds the final accuracy to its floor.
			l.set("nn.train_loss", st.Loss/float64(inst.sys.Steps()*b.spec.gpus))
			l.set("nn.val_acc", inst.valAcc())
		}
	case *serveInstance:
		base := b.inst.(*serveInstance)
		light, nom, over := base.reports[ptLight], base.reports[ptNominal], base.reports[ptOverload]
		l.set("serve.light.p50_ms", light.Latency.P50()*1e3)
		l.set("serve.light.p99_ms", light.Latency.P99()*1e3)
		l.set("serve.nominal.p50_ms", nom.Latency.P50()*1e3)
		l.set("serve.nominal.mean_batch", nom.MeanBatch)
		l.set("serve.nominal.rounds", float64(nom.Rounds))
		l.set("serve.overload.p99_ms", over.Latency.P99()*1e3)
		l.set("serve.overload.shed_frac", over.ShedRate())
		l.set("serve.host_us_per_req", l.hostMin/float64(light.Arrived+nom.Arrived+over.Arrived)*1e6)
		l.set("comm.wire_sample_mb", float64(nom.SampleWire)/1e6)
		l.set("comm.wire_feature_mb", float64(nom.FeatureWire)/1e6)
		setTiers(l, nom.Tiers)
	}
	return nil
}

// criticalBreakdown attributes every instant of the repo's critical path
// once. prof hands each segment to the worker stage (or serving round) that
// bounded wall time there; underneath it, on the same GPU, the instant goes
// to a running kernel if there is one, else to a transfer in flight (so comm
// here is exposed comm, not hidden behind compute), else to the stage itself:
// host-side overhead and waiting. Segments no stage covers are idle.
func criticalBreakdown(spans []trace.Event, path []prof.Segment) (stage, commS, kernel, idle float64) {
	type iv struct{ lo, hi float64 }
	byPid := map[int]map[string][]iv{}
	for _, e := range spans {
		if e.Cat != "kernel" && e.Cat != "comm" {
			continue
		}
		if byPid[e.Pid] == nil {
			byPid[e.Pid] = map[string][]iv{}
		}
		x := iv{e.Ts / 1e6, (e.Ts + e.Dur) / 1e6}
		byPid[e.Pid][e.Cat] = append(byPid[e.Pid][e.Cat], x)
		byPid[e.Pid]["busy"] = append(byPid[e.Pid]["busy"], x)
	}
	// covered measures the union of ivs clipped to [lo, hi].
	covered := func(ivs []iv, lo, hi float64) float64 {
		var clipped []iv
		for _, x := range ivs {
			if a, b := max(x.lo, lo), min(x.hi, hi); b > a {
				clipped = append(clipped, iv{a, b})
			}
		}
		sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
		var sum float64
		end := lo
		for _, x := range clipped {
			if x.hi > end {
				sum += x.hi - max(x.lo, end)
				end = x.hi
			}
		}
		return sum
	}
	for _, seg := range path {
		dur := seg.End - seg.Start
		if seg.Cat == "idle" {
			idle += dur
			continue
		}
		k := covered(byPid[seg.Pid]["kernel"], seg.Start, seg.End)
		both := covered(byPid[seg.Pid]["busy"], seg.Start, seg.End)
		kernel += k
		commS += both - k
		if seg.Cat == "stage" || seg.Cat == "serve" {
			stage += dur - both
		} else {
			idle += dur - both
		}
	}
	return stage, commS, kernel, idle
}

func ratio(cs comm.CompressionStats) float64 {
	if cs.Wire == 0 {
		return 0
	}
	return float64(cs.Raw) / float64(cs.Wire)
}

func setTiers(l *layerRun, t cache.Tiers) {
	total := float64(max(t.Total(), 1))
	l.set("cache.local_frac", float64(t.Local)/total)
	l.set("cache.peer_frac", float64(t.Peer)/total)
	l.set("cache.host_frac", float64(t.Host)/total)
}

// partB replays the workload's inputs through each layer from outside.
func (l *layerRun) partB() error {
	l.steps, l.scfg, l.model = l.b.replayInputs(1)
	if len(l.steps) == 0 {
		return fmt.Errorf("%s: no batches to replay", l.b.spec.name)
	}

	// The replays that feed share.* run back to back between two untraced
	// repetitions, and each share is the replay's host seconds over the mean
	// of those two: a slow phase of the machine then stretches both sides.
	_, before, err := timedRep(l.b.inst, l.nextRep)
	if err != nil {
		return err
	}
	shares := map[string]float64{}
	shares["share.sample"] = l.replaySample()
	shares["share.graph_decode"] = l.replayGraph()
	featS, codecS, err := l.replayFeatures()
	if err != nil {
		return err
	}
	shares["share.featstore"] = featS
	gradS := l.replayCodecs()
	shares["share.compress"] = codecS + gradS
	shares["share.nn"] = l.replayNN()
	_, after, err := timedRep(l.b.inst, l.nextRep+1)
	if err != nil {
		return err
	}
	l.nextRep += 2
	repetition := (before.seconds + after.seconds) / 2
	// What no replayed layer accounts for is the DES itself: proc handoffs,
	// queues, the collectives' rendezvous, the fabric and store models.
	rest := 1.0
	for name, secs := range shares {
		l.set(name, secs/repetition)
		rest -= secs / repetition
	}
	l.set("share.des_overhead", rest)

	l.replaySim()
	if err := l.replayCSP(); err != nil {
		return err
	}
	if err := l.replayComm(); err != nil {
		return err
	}
	l.replayInstrumentation()
	return l.guardRails()
}
