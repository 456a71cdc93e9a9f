package strategy

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/csp"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

// Role says which half of the strategy surface a substrate will run.
type Role int

const (
	// Training is Load + Train: Build adds the trainer (gradient buffers,
	// optimiser state, its gated communicator) and Load commits its tier
	// counts at split time.
	Training Role = iota
	// Serving is Load + Infer: model replicas only, and the caller commits
	// Loaded.Tiers itself once a round has survived its collective attempts.
	Serving
)

// Substrate is one machine's assembled system: partitioned topology (one CSP
// world per sampler instance), feature placement in the strategy's layout
// behind the adaptive cache manager, the optional out-of-core tier, gated
// communicators under one CCC coordinator, and the execution strategy that
// runs rounds over them.
type Substrate struct {
	Opts     train.Options
	M        *hw.Machine
	Worlds   []*csp.World
	Store    *featstore.Store
	Host     *store.Store // nil unless Opts.OOC
	Cache    *cache.Manager
	Coord    *pipeline.Coordinator
	Loaders  []*comm.Communicator
	Trainer  *train.Trainer // nil under Serving
	Strategy ExecutionStrategy
}

// Build assembles the substrate of machine m for resolved options (Defaults
// applied, validated): topology first (the Figure 10 insight), features in
// the strategy's layout with the remaining or configured budget, then the
// coordinator, communicators and model replicas. Errors carry no package
// prefix; callers add their own.
func Build(m *hw.Machine, opts train.Options, role Role) (*Substrate, error) {
	kind, err := Parse(opts.Strategy)
	if err != nil {
		return nil, err
	}
	// The p3 layout has no hot/cold rows, so the row-cache knobs are refused
	// rather than silently dropped. Degraded-mode serving re-routes a dead
	// GPU's rows to their other holders, and a dimension slice has none;
	// fail-stop training recovery rebuilds, restores and replays — it never
	// re-routes a row.
	if kind == KindP3 {
		switch {
		case opts.ReplicatedCache:
			return nil, errors.New("-strategy p3 is incompatible with the replicated cache (features are dimension-sliced, not row-cached)")
		case opts.DynamicCache != cache.Static:
			return nil, fmt.Errorf("-strategy p3 is incompatible with -cache %s: the dimension-sliced layout has no rows to promote or rebalance (use -cache static)", opts.DynamicCache)
		case opts.FeatureCacheBudget > 0:
			return nil, errors.New("-strategy p3 ignores -cache-budget: each GPU holds the full [#nodes, F/world] slice")
		case role == Serving && len(opts.Faults) > 0:
			return nil, errors.New("-strategy p3 does not support fault injection when serving (no per-row holders to re-route around)")
		}
	}
	if opts.ReplicatedCache && opts.DynamicCache != cache.Static {
		return nil, fmt.Errorf("DynamicCache %s (-cache) is incompatible with ReplicatedCache: every GPU holds the same rows, so there is no per-GPU shard to rebalance", opts.DynamicCache)
	}
	d := opts.Data
	n := d.NumGPUs()
	s := &Substrate{Opts: opts, M: m}
	if opts.RealCompute {
		d.Features() // drawn at build, not inside a timed epoch
	}
	topoBudget := opts.TopoCacheBudget
	if topoBudget <= 0 {
		// Cache the whole patch when it fits; otherwise keep the hottest
		// adjacency lists within 60% of device memory (the paper: "DSP can
		// also handle large graph patches by storing the hot nodes in GPU
		// memory and the other nodes in CPU memory").
		topoBudget = opts.GPU.MemBytes * 6 / 10
	}
	var topo graph.Topology = d.G
	if opts.CompressTopology {
		topo = graph.Compress(d.G)
	}
	world, err := csp.NewWorldBudget(m, topo, d.Offsets, topoBudget)
	if err != nil {
		return nil, fmt.Errorf("topology layout: %w", err)
	}
	if opts.OOC {
		s.Host, err = store.New(m.Eng, topo, d.G.NumNodes(), d.RowBytes(), store.Config{
			BlockNodes:   opts.OOCBlockNodes,
			CacheBytes:   opts.OOCBudget,
			Prefetch:     !opts.OOCNoPrefetch,
			LatencyScale: opts.LatencyScale,
		})
		if err != nil {
			return nil, fmt.Errorf("out-of-core store: %w", err)
		}
		world.SetHostStore(s.Host)
	}

	// Every extra worker instance adds pipeline queues, and every queue slot
	// is an in-flight mini-batch (graph samples + gathered features) held in
	// device memory — the first reason the paper gives against the
	// multi-instance design ("it consumes more memory for in-flight works
	// and thus leaves less GPU memory to cache graph topology and node
	// features"). The count is the runner's own (pipeline.Queues). Reserve
	// them BEFORE sizing the feature cache: they eat directly into it.
	nS, nL := max(opts.NumSamplers, 1), max(opts.NumLoaders, 1)
	if extra := pipeline.Queues(nS, nL) - pipeline.Queues(1, 1); extra > 0 {
		want := int64(extra) * int64(opts.QueueCap) * int64(opts.BatchSize) * 32 * int64(d.RowBytes())
		for _, dev := range m.GPUs {
			// In-flight buffers squeeze the feature cache down to nothing
			// before the build fails outright (leave a 5% floor so the
			// system still assembles; the cache just starves).
			if err := dev.Reserve(min(want, dev.MemFree()*95/100)); err != nil {
				return nil, fmt.Errorf("in-flight buffers for %d extra queues: %w", extra, err)
			}
		}
	}

	budget := opts.FeatureCacheBudget
	if budget <= 0 {
		free := m.GPUs[0].MemFree()
		for _, g := range m.GPUs[1:] {
			free = min(free, g.MemFree())
		}
		budget = free * 9 / 10 // leave headroom for activations
	}
	switch {
	case kind == KindP3:
		// P3: every GPU holds a full-row [#Nodes, F/world] column slice —
		// no hot/cold split, no budget knob; the slab either fits or the
		// Reserve below fails.
		s.Store = featstore.BuildDimSliced(d.G.NumNodes(), d.Features, d.FeatDim, n)
	case opts.ReplicatedCache:
		s.Store = featstore.BuildReplicated(d.G, d.Features, d.FeatDim, n, budget, opts.CachePolicy)
	default:
		s.Store = featstore.BuildPartitioned(d.G, d.Features, d.FeatDim, d.Offsets, budget, opts.CachePolicy)
	}
	for g, dev := range m.GPUs {
		if err := dev.Reserve(s.Store.CacheBytes(g)); err != nil {
			return nil, fmt.Errorf("feature cache: %w", err)
		}
	}
	s.Cache = cache.New(s.Store, d.G, d.Offsets, cache.Config{Policy: opts.DynamicCache, Decay: opts.CacheDecay})

	// Distinct CCC worker ids: samplers 0..nS-1, loaders nS..nS+nL-1,
	// trainer last.
	s.Coord = pipeline.NewCoordinator(m.Eng, n, opts.UseCCC, 2)
	// The CLIs attach tracers to the machine after the build returns, so
	// the coordinator resolves the tracer at launch time.
	s.Coord.Tracer = func() *trace.Tracer { return m.GPUs[0].Tracer }
	s.Worlds = []*csp.World{world}
	for i := 1; i < nS; i++ {
		s.Worlds = append(s.Worlds, world.Clone())
	}
	for j := 0; j < nL; j++ {
		s.Loaders = append(s.Loaders, comm.New(m))
	}
	if opts.UseCCC {
		for i, w := range s.Worlds {
			w.Comm.SetGate(s.Coord.Gate(i))
		}
		for j, lc := range s.Loaders {
			lc.SetGate(s.Coord.Gate(nS + j))
		}
	}
	r := replica{Opts: opts, M: m, par: m.Eng.NewParallelGroup()}
	if role == Training {
		tc := comm.New(m)
		if opts.UseCCC {
			tc.SetGate(s.Coord.Gate(nS + nL))
		}
		s.Trainer = train.NewTrainer(opts, tc)
		r.Trainer, r.Models = s.Trainer, s.Trainer.Models
	} else if opts.RealCompute {
		for g := 0; g < n; g++ {
			// Identical replicas (same init seed) — any GPU serves any
			// request, as after BSP training.
			r.Models = append(r.Models, nn.NewModel(opts.Model, opts.Seed))
		}
	}
	if kind == KindP3 {
		s.Strategy = &P3{replica: r, Store: s.Store}
	} else {
		s.Strategy = &DSP{replica: r, Cache: s.Cache, Host: s.Host, deferTiers: role == Serving}
	}
	return s, nil
}

// Sample builds one batch's graph samples on world w via CSP, or through
// the ablation alternative the options select (Figure 11's data pull, §4.1's
// unfused kernels).
func (s *Substrate) Sample(p *sim.Proc, w *csp.World, rank int, seeds []graph.NodeID, seed uint64) *sample.MiniBatch {
	switch {
	case s.Opts.PullData:
		return w.PullDataSampleBatch(p, rank, seeds, s.Opts.Sample, seed)
	case s.Opts.UnfusedSampling:
		return w.SampleBatchUnfused(p, rank, seeds, s.Opts.Sample, seed)
	default:
		return w.SampleBatch(p, rank, seeds, s.Opts.Sample, seed)
	}
}

// Stages adapts the substrate to rank's pipeline stages for an epoch of
// steps batches — the one place training's sample → Load → Train chain is
// written. Sampler instance i samples on world i, loader instance j loads
// over communicator j, the trainer accumulates into st and, as the batch's
// last reader, releases it to the world that sampled it; batch names the
// seeds and the sampling seed of a step (the schedule is the caller's: a
// cluster strides it across machines).
func (s *Substrate) Stages(rank, steps int, st *train.EpochStats,
	batch func(step int) (seeds []graph.NodeID, sampleSeed uint64)) pipeline.Stages[*sample.MiniBatch, Loaded] {
	ps := pipeline.Stages[*sample.MiniBatch, Loaded]{NumBatches: steps, Overhead: s.Opts.EffectiveStageOverhead()}
	for _, w := range s.Worlds {
		ps.Samplers = append(ps.Samplers, func(p *sim.Proc, step int) *sample.MiniBatch {
			seeds, seed := batch(step)
			return s.Sample(p, w, rank, seeds, seed)
		})
	}
	for _, lc := range s.Loaders {
		ps.Loaders = append(ps.Loaders, func(p *sim.Proc, step int, mb *sample.MiniBatch) Loaded {
			return s.Strategy.Load(p, rank, mb, lc)
		})
	}
	ps.Train = func(p *sim.Proc, step int, l Loaded) {
		s.Strategy.Train(p, rank, l, st)
		s.Worlds[step%len(s.Worlds)].Release(rank, l.MB)
	}
	return ps
}

// Counters is the substrate's cumulative snapshot of the one counter set —
// the only place the fabric, NIC, cache manager, out-of-core store,
// communicators (sampler worlds, loader instances, the gradient allreduce)
// and strategy are read for reporting. Epoch stats are differences of it,
// run reports sums of those.
func (s *Substrate) Counters() train.Counters {
	c := train.FabricCounters(s.M)
	if cl := s.M.Cluster; cl != nil {
		c.InterWire = cl.Net.Sent[s.M.Index]
	}
	cs := s.Cache.Stats()
	c.CachePolicy = s.Cache.Policy()
	c.CacheLocal, c.CachePeer, c.CacheHost = cs.Tiers.Local, cs.Tiers.Peer, cs.Tiers.Host
	c.Rebalances, c.RebalanceTime = cs.Rebalances, cs.RebalanceTime
	c.CachePromoted, c.RebalanceBytes = cs.Promoted, cs.MovedBytes
	if s.Host != nil {
		st := s.Host.Stats()
		c.StoreHits, c.StoreMisses = st.Hits, st.Misses
		c.StoreDemandBytes, c.StorePrefetchBytes = st.DemandBytes, st.PrefetchBytes
		c.StorePrefetchIssued, c.StorePrefetchUsed = st.PrefetchIssued, st.PrefetchUsed
		c.StoreStall = st.StallTime
		c.StoreDeviceReads, c.StoreDeviceBytes = st.DeviceReads, st.DeviceBytes
		c.Store = &prof.StoreSection{
			Blocks: st.Blocks, TopoBlocks: st.TopoBlocks, BlockBytes: st.BlockBytes,
			Compressed: st.Compressed, CacheBytes: st.CacheBytes,
			ResidentBytes: st.ResidentBytes, SpilledBytes: st.SpilledBytes,
		}
	}
	comms := append([]*comm.Communicator(nil), s.Loaders...)
	for _, w := range s.Worlds {
		comms = append(comms, w.Comm)
	}
	if s.Trainer != nil {
		comms = append(comms, s.Trainer.Comm)
	}
	for _, cm := range comms {
		for class, cs := range cm.Compression() {
			c.Codec[class].Raw += cs.Raw
			c.Codec[class].Wire += cs.Wire
		}
	}
	s.Strategy.Count(&c)
	return c
}

// Window is the epoch bracket's view of subs (one machine's substrate, or
// every machine's of a cluster): their machines, the sum of their snapshots
// and — when boundary is set, because the window reaches the epoch's end —
// the rebalance of every dynamic cache.
func Window(boundary bool, subs ...*Substrate) train.Window {
	w := train.Window{Counters: func() train.Counters {
		var c train.Counters
		for _, s := range subs {
			c.Add(s.Counters())
		}
		return c
	}}
	var dynamic []*Substrate
	for _, s := range subs {
		w.Machines = append(w.Machines, s.M)
		if boundary && s.Cache.Dynamic() {
			dynamic = append(dynamic, s)
		}
	}
	if len(dynamic) > 0 {
		w.Boundary = func(p *sim.Proc) {
			for _, s := range dynamic {
				s.Cache.Rebalance(p, s.M.Fabric)
			}
		}
	}
	return w
}

// Observe registers the substrate's scrape sources on the hub, each name
// under prefix: per-GPU busy fractions, cache-tier hit rate, per-class wire
// bytes (the gradient class only when the substrate trains) and out-of-core
// residency. Training and serving both call it, at build time.
func (s *Substrate) Observe(h *telemetry.Hub, prefix string) {
	for g, dev := range s.M.GPUs {
		dev := dev
		h.Rate(fmt.Sprintf("%sgpu%d/busy", prefix, g), func(now sim.Time) float64 {
			return float64(dev.BusyAt(now))
		})
	}
	if s.Store.Layout != featstore.DimSliced { // dimension slices have no row cache
		h.Gauge(prefix+"cache/hit_rate", func(sim.Time) float64 {
			return s.Cache.Stats().Tiers.HitRate()
		})
	}
	classes := []hw.TrafficClass{hw.TrafficSample, hw.TrafficFeature}
	if s.Trainer != nil {
		classes = append(classes, hw.TrafficGradient)
	}
	for _, class := range classes {
		class := class
		h.Counter(fmt.Sprintf("%swire/%s_bytes", prefix, class), func(sim.Time) float64 {
			return float64(s.M.Fabric.Counters.TotalWire(class))
		})
	}
	if s.Host != nil {
		h.Gauge(prefix+"store/resident_bytes", func(sim.Time) float64 {
			return float64(s.Host.Stats().ResidentBytes)
		})
	}
}
