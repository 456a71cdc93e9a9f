package strategy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/csp"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/store"
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
	if err := kind.Compatible(opts); err != nil {
		return nil, err
	}
	d := opts.Data
	n := d.NumGPUs()
	s := &Substrate{Opts: opts, M: m}
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

	// Every extra worker instance holds additional in-flight mini-batches
	// (graph samples + gathered features) in device memory — the first
	// reason the paper gives against the multi-instance design ("it
	// consumes more memory for in-flight works and thus leaves less GPU
	// memory to cache graph topology and node features"). Reserve them
	// BEFORE sizing the feature cache: they eat directly into it.
	nS, nL := max(opts.NumSamplers, 1), max(opts.NumLoaders, 1)
	if extra := (nS - 1) + (nL - 1); extra > 0 {
		qc := opts.QueueCap
		if qc < 1 {
			qc = 2
		}
		want := int64(extra) * int64(qc) * int64(opts.BatchSize) * 32 * int64(d.RowBytes())
		for _, dev := range m.GPUs {
			// In-flight buffers squeeze the feature cache down to nothing
			// before the build fails outright (leave a 5% floor so the
			// system still assembles; the cache just starves).
			if err := dev.Reserve(min(want, dev.MemFree()*95/100)); err != nil {
				return nil, fmt.Errorf("in-flight buffers for %d extra workers: %w", extra, err)
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
	policy := featstore.Policy(opts.CachePolicy)
	switch {
	case kind == KindP3:
		// P3: every GPU holds a full-row [#Nodes, F/world] column slice —
		// no hot/cold split, no budget knob; the slab either fits or the
		// Reserve below fails.
		s.Store = featstore.BuildDimSliced(d.Feats, d.FeatDim, n)
	case opts.ReplicatedCache:
		s.Store = featstore.BuildReplicated(d.G, d.Feats, d.FeatDim, n, budget, policy)
	default:
		s.Store = featstore.BuildPartitioned(d.G, d.Feats, d.FeatDim, d.Offsets, budget, policy)
	}
	for g, dev := range m.GPUs {
		if err := dev.Reserve(s.Store.CacheBytes(g)); err != nil {
			return nil, fmt.Errorf("feature cache: %w", err)
		}
	}
	mcfg := opts.CacheTune
	mcfg.Policy = opts.DynamicCache
	s.Cache = cache.New(s.Store, d.G, d.Offsets, mcfg)

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

// Compression merges the codec accounting of every communicator the
// substrate drives — sampler worlds, loader instances, and the gradient
// allreduce — into one per-traffic-class raw-vs-wire byte map.
func (s *Substrate) Compression() map[hw.TrafficClass]comm.CompressionStats {
	out := map[hw.TrafficClass]comm.CompressionStats{}
	merge := func(c *comm.Communicator) {
		for class, cs := range c.Compression() {
			acc := out[class]
			acc.Raw += cs.Raw
			acc.Wire += cs.Wire
			out[class] = acc
		}
	}
	for _, w := range s.Worlds {
		merge(w.Comm)
	}
	for _, lc := range s.Loaders {
		merge(lc)
	}
	if s.Trainer != nil {
		merge(s.Trainer.Comm)
	}
	return out
}
