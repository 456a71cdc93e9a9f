// Package serve implements online GNN inference serving on the same
// simulated multi-GPU fleet the trainer uses — the first step from "paper
// reproduction" toward a system that serves live traffic.
//
// Architecture: a seeded open-loop workload generator produces Poisson
// request arrivals with power-law node popularity. Requests are admitted
// into bounded per-GPU queues (routed to the GPU owning the target node's
// patch); arrivals beyond the bound are shed. A frontend controller batches
// admitted requests into dispatch rounds — flushing when any queue reaches
// MaxBatch or the oldest admitted request has waited MaxWait virtual time —
// and every round executes collectively on all GPUs: CSP
// shuffle/sample/reshuffle builds the multi-hop neighbourhoods (GPUs with no
// requests this round still serve remote sampling tasks), the feature
// loader fetches rows from the partitioned cache (NVLink all-to-all for
// remote hot rows, UVA for cold rows), and a forward-only pass produces the
// predictions. Sampling and execution pipeline over consecutive rounds
// through bounded queues, with all collective launches ordered by CCC so
// concurrent rounds cannot deadlock — exactly the paper's training-side
// machinery, repurposed for latency-bounded inference.
package serve

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/csp"
	"repro/internal/fault"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

// Batching selects the micro-batching policy of the frontend controller.
type Batching int

const (
	// BatchDynamic flushes when a queue reaches MaxBatch OR the oldest
	// admitted request has waited MaxWait — large batches under load, low
	// latency when idle (the serving default).
	BatchDynamic Batching = iota
	// BatchSingle dispatches at most one request per GPU per round (no
	// batching — the latency-optimal policy at very low load, collapsing
	// under high load since every request pays the full round overhead).
	BatchSingle
	// BatchFixed flushes only full MaxBatch batches (throughput-optimal
	// under saturation, pathological at low load: partial batches wait
	// until the run drains).
	BatchFixed
)

func (b Batching) String() string {
	switch b {
	case BatchSingle:
		return "batch=1"
	case BatchFixed:
		return "fixed"
	default:
		return "dynamic"
	}
}

// ParseBatching resolves a batching policy name, case-insensitively:
// dynamic, single (or Batching.String's batch=1) or fixed.
func ParseBatching(s string) (Batching, error) {
	switch strings.ToLower(s) {
	case "dynamic":
		return BatchDynamic, nil
	case "single", "batch=1":
		return BatchSingle, nil
	case "fixed":
		return BatchFixed, nil
	}
	return BatchDynamic, fmt.Errorf("serve: unknown batching mode %q (want dynamic, single or fixed)", s)
}

// Config describes one serving run. Data, Duration and Rate are required.
// The machine is the paper's (V100 GPUs, memory scaled by the dataset, behind
// a Xeon host) and the model served is a 2-layer GraphSAGE of hidden width
// 64 sized to the dataset.
type Config struct {
	Data *train.Data
	// Sample is the neighbourhood expansion per request; defaults to
	// fan-out [10, 5] and must be as deep as the model (2).
	Sample sample.Config
	// RealCompute runs the actual fp32 forward math and records argmax
	// predictions; false charges nominal kernel costs only.
	RealCompute bool
	Seed        uint64
	// Parallel is the OS-thread budget for offloaded data work between DES
	// commit points (sim.SetParallelism); results are bitwise identical at
	// any value. Ignored by NewReplica (the shared engine's owner configures
	// it).
	Parallel int

	// Duration is the virtual-time horizon of the arrival process.
	Duration sim.Time
	// Rate is the offered load in requests per virtual second.
	Rate float64
	// Skew is the power-law popularity exponent (0 = uniform).
	Skew float64

	Batching Batching
	// MaxBatch bounds per-GPU requests per round (default 32).
	MaxBatch int
	// MaxWait bounds queueing delay before a dynamic flush (default 2 ms).
	MaxWait sim.Time
	// QueueDepth bounds each GPU's admission queue; arrivals beyond it are
	// shed (default 4×MaxBatch).
	QueueDepth int
	UseCCC     bool

	FeatureCacheBudget int64
	// CompressTopology stores the partitioned topology varint-compressed
	// (resident bytes at the encoded size, a decode kernel per sampled row).
	CompressTopology bool
	// OOC enables the out-of-core tier below host memory (internal/store);
	// OOCBudget is its block-cache byte budget (<=0: half the block bytes)
	// and OOCNoPrefetch disables the proximity-aware prefetcher.
	OOC           bool
	OOCBudget     int64
	OOCNoPrefetch bool
	// DynamicCache selects the adaptive cache policy (cache.Static keeps the
	// offline placement). Non-static policies rebalance each GPU's feature
	// shard every RebalanceEvery of virtual time, promoting observed-hot rows
	// and demoting cold ones at constant budget.
	DynamicCache cache.Policy
	// RebalanceEvery is the rebalance period (default 25 ms when a dynamic
	// policy is selected).
	RebalanceEvery sim.Time
	// CacheDecay is the adaptive manager's per-rebalance hotness decay
	// (cache.Config.Decay; outside (0, 1] the cache package default).
	CacheDecay float64
	// DriftEvery re-draws the workload's popularity assignment at this virtual
	// period (0 = static popularity). Drift is what dynamic caching adapts to.
	DriftEvery sim.Time
	// FeatCodec compresses the NVLink feature-reply all-to-all between GPUs
	// (nil = raw fp32 rows). UVA host reads are zero-copy and uncompressed.
	FeatCodec compress.Codec

	// Tenants partitions the arrival stream into named tenants: each arrival
	// draws a tenant proportionally to the spec weights (from a stream
	// independent of arrival timing), and tenants with a Rate are admission-
	// limited by a token bucket. Quota rejections count into Shed and into
	// the per-tenant rejected totals. Empty = single implicit tenant,
	// bit-identical to the pre-tenant behaviour.
	Tenants []TenantSpec
	// SLO is the end-to-end latency objective. When positive, the run keeps
	// a windowed goodput counter (requests completed within SLO per virtual
	// second, in goodputWindow buckets) reported alongside the latency
	// histogram.
	SLO sim.Time

	// Tracer, when set, records per-request spans, round spans, queue-depth
	// counters and shed markers.
	Tracer *trace.Tracer

	// Faults is the injected fault schedule. A GPU crash switches the fleet
	// to degraded mode: the dead GPU's workers stop, its admitted requests
	// re-route to the next live GPU, in-flight collectives abort and retry
	// under the reduced membership, and reads of its patch and feature shard
	// fall back to host memory. The schedule must leave at least one GPU
	// alive (NewServer rejects one that does not; a whole-fleet death is a
	// router's crash@fleetF).
	Faults []fault.Fault

	// Strategy selects the execution strategy: "" or "dsp" serves off the
	// row-partitioned hot/cold cache; "p3" dimension-slices the features
	// ([#Nodes, F/world] per GPU) and replaces the feature gather with the
	// first layer's partial-activation push exchange (internal/strategy).
	Strategy string

	// Telemetry, when set, receives scrape sources (queue depth, per-GPU
	// busy fractions, cache hit rate, wire bytes), per-request stage spans
	// and shed/degraded events from this server. A nil hub disables all
	// instrumentation. Fleet routers share one hub across replicas; the
	// Name prefix keeps series names distinct.
	Telemetry *telemetry.Hub
}

// The serving design point. An inference server launches rounds from a
// compiled runtime, not a Python training loop, so its host-side cost per
// worker stage per round is a quarter of training's; execQueueCap is the
// sampler→executor pipeline depth and goodputWindow the goodput counter's
// bucket width.
const (
	stageOverhead sim.Time = 0.5e-3
	execQueueCap           = 2
	goodputWindow sim.Time = 10e-3
)

func (c Config) defaults() Config {
	if len(c.Sample.Fanout) == 0 {
		c.Sample.Fanout = []int{10, 5}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2e-3
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.RebalanceEvery <= 0 {
		c.RebalanceEvery = 25e-3
	}
	return c
}

// validate holds the serving checks; the substrate's own (model, fan-out)
// are train.Options.Validate's.
func (c Config) validate() error {
	if c.Data == nil {
		return fmt.Errorf("serve: Config.Data is required")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Duration", float64(c.Duration)}, {"Rate", c.Rate}, {"Skew", c.Skew},
		{"MaxWait", float64(c.MaxWait)}, {"RebalanceEvery", float64(c.RebalanceEvery)},
		{"DriftEvery", float64(c.DriftEvery)}, {"SLO", float64(c.SLO)},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("serve: Config.%s must be finite, got %v", f.name, f.v)
		}
	}
	if c.Duration <= 0 {
		return fmt.Errorf("serve: Config.Duration must be positive")
	}
	if c.Rate <= 0 {
		return fmt.Errorf("serve: Config.Rate must be positive")
	}
	n := c.Data.NumGPUs()
	crashed := map[int]bool{}
	for _, f := range c.Faults {
		if f.Kind == fault.Crash && f.GPU >= 0 && f.GPU < n {
			crashed[f.GPU] = true
		}
	}
	if len(crashed) == n {
		return fmt.Errorf("serve: fault schedule crashes all %d GPUs; at least one must survive (a whole-fleet death is crash@fleetF under a router)", n)
	}
	return nil
}

// substrate translates the serving config into the options strategy.Build
// assembles a machine from, with the served model. Defaults fills the rest:
// the GPU spec, the model's input and class widths, and training knobs the
// Serving role never reads.
func (c Config) substrate() train.Options {
	return train.Options{
		Data: c.Data, Model: nn.Config{Arch: nn.SAGE, Hidden: 64, Layers: 2}, Sample: c.Sample,
		RealCompute: c.RealCompute, Seed: c.Seed, UseCCC: c.UseCCC,
		FeatureCacheBudget: c.FeatureCacheBudget, DynamicCache: c.DynamicCache, CacheDecay: c.CacheDecay,
		CompressTopology: c.CompressTopology, OOC: c.OOC, OOCBudget: c.OOCBudget,
		OOCNoPrefetch: c.OOCNoPrefetch, FeatCodec: c.FeatCodec, Faults: c.Faults,
		Strategy: c.Strategy,
	}
}

// Request is one node-classification inference request and its lifecycle
// timestamps (virtual seconds).
type Request struct {
	ID      int
	Node    graph.NodeID
	GPU     int
	Tenant  int // index into Config.Tenants (0 when untenanted)
	Arrival sim.Time
	Start   sim.Time // round dispatch time
	Done    sim.Time
	Round   int
	Batch   int   // number of requests in its round on its GPU
	Pred    int32 // argmax class (RealCompute), else -1
}

// Latency is the end-to-end request latency.
func (r *Request) Latency() sim.Time { return r.Done - r.Arrival }

// round is one collective dispatch: every GPU samples and executes it, with
// reqs[g] the requests admitted to GPU g (possibly empty).
type round struct {
	id    int
	seed  uint64
	start sim.Time
	reqs  [][]*Request
}

// execItem carries a sampled round from the sampler to the executor.
type execItem struct {
	rd *round
	mb *sample.MiniBatch
	// sampledAt is when the CSP sample round finished — the boundary
	// between the sample and gather stages of each request's span.
	sampledAt sim.Time
}

// Server is a configured single-run serving instance. Build with NewServer,
// execute with Run (or use the Serve convenience wrapper); a fleet router
// builds its replicas with NewReplica.
type Server struct {
	cfg Config
	m   *hw.Machine
	// name prefixes process and series names (a replica's fleetN; empty
	// stand-alone) and onComplete, when set, runs at each completion.
	name       string
	onComplete func(*Request)
	// sub is the fleet's substrate and execution strategy, assembled by
	// internal/strategy exactly as for training; serving runs its Load +
	// Infer half. world and execComm are its sampler world and the loader
	// communicator the executors run rounds over.
	sub      *strategy.Substrate
	world    *csp.World
	execComm *comm.Communicator
	// weights is the run's phase-0 popularity, for ExpectedCacheHitRate.
	weights []float64

	// fault tolerance
	inj  *fault.Injector
	view *fault.View

	// intake is a stand-alone server's arrival process (nil for a replica,
	// which a router admits into); adm is where this server's arrivals and
	// sheds are counted — the intake's totals when it has one. ledger is the
	// run's ledger: the router's intake for a replica, adm stand-alone.
	intake  *Intake
	adm     *Admission
	ledger  *Admission
	goodput *metrics.Goodput

	// run state
	wake      *sim.Cond
	genDone   bool
	started   bool
	pending   [][]*Request
	sampQ     []*sim.QueueOf[*round]
	execQ     []*sim.QueueOf[execItem]
	dones     []*sim.Event
	ctrlProc  *sim.Proc
	rebProc   *sim.Proc
	sampProcs []*sim.Proc
	execProcs []*sim.Proc
	// nextRound is the next round's id: the count of rounds dispatched.
	nextRound int

	// whole-fleet crash state (router-driven Shutdown)
	dead     bool
	killedAt sim.Time

	// accounting
	rerouted  int
	batchSum  int64
	crashes   []Recovery
	completed []*Request
	latency   []*metrics.Histogram
}

// NewServer builds a stand-alone serving fleet — machine, partitioned
// topology, partitioned feature cache, gated communicators and model
// replicas, the same data layout the trainer uses, now serving reads — fed
// by its own Intake.
func NewServer(cfg Config) (*Server, error) {
	return newServer(cfg, nil, "", nil, nil)
}

// NewReplica builds one replica of a routed fleet on the router's engine: no
// arrival process of its own (the router's intake admits through Admit and
// ends with CloseIntake; the caller drives Start, the engine and Finish),
// process and series names prefixed with name, and onComplete called in
// engine context at each completion. The replica reads in's popularity for
// its ExpectedHitRate.
func NewReplica(cfg Config, eng *sim.Engine, name string, in *Intake, onComplete func(*Request)) (*Server, error) {
	return newServer(cfg, eng, name, in, onComplete)
}

func newServer(cfg Config, eng *sim.Engine, name string, in *Intake, onComplete func(*Request)) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.defaults()
	o := cfg.substrate().Defaults()
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	n := cfg.Data.NumGPUs()
	s := &Server{cfg: cfg, name: name, onComplete: onComplete}
	if eng != nil {
		s.m = hw.NewMachineOn(eng, n, o.GPU, hw.XeonE5(), 1)
		s.adm = new(Admission)
	} else {
		s.m = hw.NewMachine(n, o.GPU, hw.XeonE5())
		s.m.Eng.SetParallelism(cfg.Parallel)
		in = NewIntake(cfg)
		s.intake, s.adm = in, &in.Admission
	}
	s.ledger = &in.Admission
	s.weights = in.pop.Weights()
	if cfg.SLO > 0 {
		s.goodput = metrics.NewGoodput(float64(goodputWindow), float64(cfg.SLO))
	}
	if cfg.Tracer.Enabled() {
		s.m.SetTracer(cfg.Tracer)
		for g := 0; g < n; g++ {
			cfg.Tracer.NameLane(g, trace.LaneRequests, "requests")
			cfg.Tracer.NameLane(g, trace.LaneRounds, "serve rounds")
		}
		cfg.Tracer.NamePid(n, "frontend")
	}

	sub, err := strategy.Build(s.m, o, strategy.Serving)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.sub, s.world, s.execComm = sub, sub.Worlds[0], sub.Loaders[0]
	if cfg.Tracer.Enabled() {
		sub.Cache.SetTracer(cfg.Tracer, n) // frontend lane
	}
	if len(cfg.Faults) > 0 {
		inj, err := fault.NewInjector(s.m, cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("serve: fault schedule: %w", err)
		}
		s.inj = inj
		s.view = inj.View()
		// Membership-aware collectives and leader failover: barriers release
		// on the live count, a death aborts in-flight rounds, and the lowest
		// live GPU takes over grant ordering.
		s.world.SetView(s.view)
		s.execComm.SetView(s.view)
		sub.Coord.SetView(s.view)
		sub.Cache.SetView(s.view)
		inj.OnCrash(func(p *sim.Proc, f fault.Fault) { s.onCrash(p, f.GPU) })
	}
	if s.cfg.Telemetry.Enabled() {
		s.registerTelemetry()
	}
	return s, nil
}

// registerTelemetry registers this server's scrape sources on the hub.
// Registration happens at build time, before the hub's first scrape, so
// fleets constructed together (including autoscaler standbys) all appear
// in the series set even if they start serving later. Closures guard
// against being sampled before Start wires the run state.
func (s *Server) registerTelemetry() {
	h := s.cfg.Telemetry
	h.Gauge(s.pname("serve/queue_depth"), func(sim.Time) float64 {
		total := 0
		for _, q := range s.pending {
			total += len(q)
		}
		return float64(total)
	})
	h.Gauge(s.pname("serve/outstanding"), func(sim.Time) float64 {
		return float64(s.Outstanding())
	})
	h.Counter(s.pname("serve/arrived"), func(sim.Time) float64 {
		return float64(s.adm.Arrived)
	})
	h.Counter(s.pname("serve/shed"), func(sim.Time) float64 {
		return float64(s.adm.Shed)
	})
	h.Counter(s.pname("serve/completed"), func(sim.Time) float64 {
		return float64(len(s.completed))
	})
	s.sub.Observe(h, s.pname(""))
	if s.goodput != nil {
		h.Gauge(s.pname("serve/goodput"), func(sim.Time) float64 {
			return s.goodput.Rate()
		})
	}
}

// alive reports whether GPU g still participates in serving.
func (s *Server) alive(g int) bool {
	return s.view == nil || s.view.Alive(g)
}

// drain starts a daemon that takes and drops q's items until q is closed and
// empty, so no producer wedges on a queue whose consumer is dead.
func drain[T any](eng *sim.Engine, name string, q *sim.QueueOf[T]) {
	eng.GoDaemon(name, func(p *sim.Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
}

// onCrash is the degraded-mode fail-over, run in engine context at the crash
// instant (the membership view already reflects the death, and every
// in-flight collective has been voided). It stops the dead GPU's workers,
// drains its pipeline queues so the controller cannot wedge on them, and
// re-routes its admitted-but-undispatched requests to the next live GPU.
// Requests already dispatched to the dead GPU are lost (counted at report
// time); live GPUs' slices of those rounds complete normally.
func (s *Server) onCrash(p *sim.Proc, g int) {
	eng := s.m.Eng
	s.crashes = append(s.crashes, Recovery{GPU: g, At: p.Now()})
	s.cfg.Telemetry.RecordEvent(p.Now(), s.pname("degraded"),
		fmt.Sprintf("gpu %d crashed; re-routing to next live GPU", g))
	if s.sampProcs != nil {
		eng.Kill(s.sampProcs[g])
		eng.Kill(s.execProcs[g])
		name := fmt.Sprintf("fault/drain-gpu%d", g)
		drain(eng, name, s.sampQ[g])
		drain(eng, name, s.execQ[g])
	}
	if s.pending != nil {
		t := s.view.NextLive(g)
		for _, r := range s.pending[g] {
			if len(s.pending[t]) >= s.cfg.QueueDepth {
				// Admitted once, shed now: the router counts no shed of its
				// own for this request, so the run's ledger takes it too.
				s.adm.Shed++
				if s.ledger != s.adm {
					s.ledger.Shed++
				}
				s.observeShed(p.Now(), r.Node, t)
				continue
			}
			r.GPU = t
			s.pending[t] = append(s.pending[t], r)
			s.rerouted++
		}
		s.pending[g] = nil
		s.signal()
	}
}

// Machine exposes the simulated fleet (for utilization inspection).
func (s *Server) Machine() *hw.Machine { return s.m }

// Store exposes the feature placement (for cache assertions).
func (s *Server) Store() *featstore.Store { return s.sub.Store }

// ExpectedCacheHitRate is the weight-fraction of feature reads the GPU
// caches can serve under the run's phase-0 popularity distribution.
func (s *Server) ExpectedCacheHitRate() float64 {
	return s.sub.Store.CachedFraction(s.weights)
}

// pname prefixes a process name with the server's fleet name, if any.
func (s *Server) pname(base string) string {
	if s.name == "" {
		return base
	}
	return s.name + "/" + base
}

// Start spawns the serving pipeline's processes on the engine without running
// it: the intake (stand-alone only), the frontend controller, per-GPU sampler
// and executor workers, the fault injector and the cache-rebalance daemon.
// Callers that share an engine across replicas Start each of them and then
// drive Engine.Run themselves, finishing each with Finish.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	n := s.cfg.Data.NumGPUs()
	eng := s.m.Eng
	s.wake = eng.NewCond()
	s.pending = make([][]*Request, n)
	for g := 0; g < n; g++ {
		s.sampQ = append(s.sampQ, sim.NewQueueOf[*round](eng, 1))
		s.execQ = append(s.execQ, sim.NewQueueOf[execItem](eng, execQueueCap))
		s.latency = append(s.latency, metrics.New())
		s.dones = append(s.dones, eng.NewEvent())
	}
	if s.intake != nil {
		eng.Go(s.pname("serve/generator"), func(p *sim.Proc) {
			s.intake.Run(p, s.admit)
			s.CloseIntake()
		})
	}
	s.ctrlProc = eng.Go(s.pname("serve/controller"), s.controller)
	for g := 0; g < n; g++ {
		g := g
		s.sampProcs = append(s.sampProcs,
			eng.Go(s.pname(fmt.Sprintf("gpu%d/serve-sampler", g)), func(p *sim.Proc) { s.sampler(p, g) }))
		s.execProcs = append(s.execProcs,
			eng.Go(s.pname(fmt.Sprintf("gpu%d/serve-exec", g)), func(p *sim.Proc) { s.executor(p, g) }))
	}
	if s.inj != nil {
		s.inj.Arm()
	}
	if s.sub.Cache.Dynamic() {
		// Daemon: rebalances happen while request work is in flight, but a
		// drained fleet does not stay alive just to keep adapting.
		s.rebProc = eng.GoDaemon(s.pname("cache/rebalance"), func(p *sim.Proc) {
			for {
				p.Sleep(s.cfg.RebalanceEvery)
				s.sub.Cache.Rebalance(p, s.m.Fabric)
			}
		})
	}
	// Idempotent: in fleet mode every replica shares one hub and the first
	// Start spawns the scraper daemon.
	s.cfg.Telemetry.Start(eng)
}

// Finish validates pipeline completion and builds the report after the
// engine has run to quiescence at virtual time end.
func (s *Server) Finish(end sim.Time) (*Report, error) {
	if !s.dead {
		for g, d := range s.dones {
			if !s.alive(g) {
				continue // killed mid-run; its dispatched requests are lost
			}
			if !d.Fired() {
				return nil, fmt.Errorf("serve: GPU %d executor did not finish", g)
			}
		}
	}
	return s.report(end), nil
}

// Run executes the serving simulation to completion and reports results.
// A Server is single-use: Run consumes the virtual machine.
func (s *Server) Run() (*Report, error) {
	s.Start()
	end, err := s.m.Eng.Run()
	if err != nil {
		return nil, err
	}
	return s.Finish(end)
}

// Outstanding is the number of admitted requests not yet completed: queued in
// admission plus dispatched into the sample/execute pipeline. It is the
// least-loaded routing signal of the fleet router.
func (s *Server) Outstanding() int {
	n := 0
	for _, q := range s.pending {
		n += len(q)
	}
	return n + int(s.batchSum) - len(s.completed)
}

// targetGPU resolves the admission queue for a node: its patch owner, or the
// next live GPU when the owner is dead (counted as a reroute).
func (s *Server) targetGPU(node graph.NodeID) int {
	g := s.world.Owner(node)
	if !s.alive(g) {
		g = s.view.NextLive(g)
		s.rerouted++
	}
	return g
}

// CanAdmit reports whether a request for node would currently be admitted
// (its target GPU's queue has room). Routers call it before Admit so that a
// rejected probe does not inflate this server's arrival accounting.
func (s *Server) CanAdmit(node graph.NodeID) bool {
	if s.dead || !s.started {
		return false
	}
	g := s.world.Owner(node)
	if !s.alive(g) {
		g = s.view.NextLive(g)
	}
	return len(s.pending[g]) < s.cfg.QueueDepth
}

// Admit injects one router-generated request into a replica at virtual time
// now and reports whether it was admitted. The request is owned by this
// server from admission to completion; a false return means the target GPU's
// admission queue was full and the request was shed here.
func (s *Server) Admit(now sim.Time, id int, node graph.NodeID, tenant int) bool {
	if s.dead {
		return false
	}
	s.adm.Arrived++
	if !s.admit(now, id, node, tenant) {
		s.adm.Shed++
		return false
	}
	return true
}

// admit is the one admission sequence, behind Admit and the stand-alone
// intake: route the request to its target GPU's queue, or shed it (false)
// when that queue is full. The caller counts the outcome.
func (s *Server) admit(now sim.Time, id int, node graph.NodeID, tenant int) bool {
	g := s.targetGPU(node)
	if len(s.pending[g]) >= s.cfg.QueueDepth {
		s.observeShed(now, node, g)
		return false
	}
	s.pending[g] = append(s.pending[g], &Request{
		ID: id, Node: node, GPU: g, Tenant: tenant, Arrival: now, Pred: -1,
	})
	s.traceDepth(now)
	s.signal()
	return true
}

// observeShed records a request for node shed at GPU g's full admission
// queue: on the telemetry hub and as a "shed" trace instant.
func (s *Server) observeShed(now sim.Time, node graph.NodeID, g int) {
	s.cfg.Telemetry.ObserveShed(now)
	if tr := s.cfg.Tracer; tr.Enabled() {
		tr.Instant("shed", "serve", len(s.pending), 0, float64(now), "t",
			map[string]string{"node": fmt.Sprint(node), "gpu": fmt.Sprint(g)})
	}
}

// CloseIntake marks the arrival stream finished: the controller drains the
// remaining admitted requests and the pipeline shuts down. Must be called in
// engine context.
func (s *Server) CloseIntake() {
	if s.genDone {
		return
	}
	s.genDone = true
	s.signal()
}

// Shutdown kills the whole server at the current instant — the fleet-level
// crash of the router's fault model. Every worker process is killed (their
// held resources release as they unwind), the fault injector and rebalance
// daemon stop, and the admitted-but-undispatched requests are returned to
// the caller for re-routing to surviving fleets. Requests already dispatched
// into the pipeline are lost (Report.Lost). Idempotent.
func (s *Server) Shutdown(p *sim.Proc) []*Request {
	if s.dead {
		return nil
	}
	s.dead = true
	s.killedAt = p.Now()
	s.cfg.Telemetry.RecordEvent(p.Now(), s.pname("fleet-killed"),
		"whole-server crash: workers killed, admitted requests re-routed")
	eng := s.m.Eng
	if s.inj != nil {
		s.inj.Stop()
	}
	for _, pr := range []*sim.Proc{s.ctrlProc, s.rebProc} {
		if pr != nil {
			eng.Kill(pr)
		}
	}
	for g := range s.sampProcs {
		eng.Kill(s.sampProcs[g])
		eng.Kill(s.execProcs[g])
	}
	var orphans []*Request
	for g := range s.pending {
		orphans = append(orphans, s.pending[g]...)
		s.pending[g] = nil
	}
	return orphans
}

// Serve builds and runs a server in one call.
func Serve(cfg Config) (*Report, error) {
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// signal wakes the controller.
func (s *Server) signal() { s.wake.Broadcast() }

// traceDepth samples every GPU's admission-queue depth as one counter event.
func (s *Server) traceDepth(now sim.Time) {
	tr := s.cfg.Tracer
	if !tr.Enabled() {
		return
	}
	vals := make(map[string]float64, len(s.pending))
	for g := range s.pending {
		vals[fmt.Sprintf("gpu%d", g)] = float64(len(s.pending[g]))
	}
	tr.Counter("admission-queue", len(s.pending), float64(now), vals)
}

// controller is the frontend micro-batcher: it watches the admission queues
// and dispatches collective rounds according to the batching policy.
func (s *Server) controller(p *sim.Proc) {
	for {
		total := 0
		for g := range s.pending {
			total += len(s.pending[g])
		}
		if total == 0 {
			if s.genDone {
				break
			}
			s.wake.Wait(p)
			continue
		}
		flush, deadline := s.flushDecision(p.Now())
		if !flush && !s.genDone {
			if deadline < 0 {
				s.wake.Wait(p) // no deadline: wait for arrivals (BatchFixed)
				continue
			}
			// Only sleep if the timer actually advances virtual time;
			// a deadline at (or within one float ulp of) now must flush
			// instead, or the controller would spin at a frozen instant.
			if d := deadline - p.Now(); d > 0 && p.Now()+d > p.Now() {
				s.wake.WaitTimeout(p, d)
				continue
			}
		}
		// flush — or the arrival process ended, in which case partial
		// batches drain so no admitted request is stranded.
		s.dispatch(p)
	}
	for g := range s.sampQ {
		s.sampQ[g].Close()
	}
}

// flushDecision applies the batching policy: whether to dispatch now, and if
// not, the virtual deadline at which to re-check (-1 = none, wait for
// arrivals).
func (s *Server) flushDecision(now sim.Time) (flush bool, deadline sim.Time) {
	cfg := s.cfg
	switch cfg.Batching {
	case BatchSingle:
		return true, -1
	case BatchFixed:
		for g := range s.pending {
			if len(s.pending[g]) >= cfg.MaxBatch {
				return true, -1
			}
		}
		return false, -1
	default: // BatchDynamic
		oldest := sim.Time(-1)
		for g := range s.pending {
			if len(s.pending[g]) >= cfg.MaxBatch {
				return true, -1
			}
			if len(s.pending[g]) > 0 {
				if a := s.pending[g][0].Arrival; oldest < 0 || a < oldest {
					oldest = a
				}
			}
		}
		// Compare against the same expression used as the wake deadline
		// (oldest+MaxWait, not now-oldest vs MaxWait) so a timer that fires
		// exactly at the deadline is always seen as expired.
		if oldest >= 0 && now >= oldest+cfg.MaxWait {
			return true, -1
		}
		return false, oldest + cfg.MaxWait
	}
}

// dispatch takes up to MaxBatch (or 1 for BatchSingle) requests off every
// admission queue and hands the round to all samplers. The Put into each
// capacity-1 sampler queue is the backpressure point: the controller stalls
// while both pipeline slots are occupied.
func (s *Server) dispatch(p *sim.Proc) {
	cfg := s.cfg
	take := cfg.MaxBatch
	if cfg.Batching == BatchSingle {
		take = 1
	}
	rd := &round{
		id:    s.nextRound,
		seed:  rng.Mix(cfg.Seed, 0x5E12E, uint64(s.nextRound)),
		start: p.Now(),
		reqs:  make([][]*Request, len(s.pending)),
	}
	s.nextRound++
	dispatched := 0
	for g := range s.pending {
		k := take
		if k > len(s.pending[g]) {
			k = len(s.pending[g])
		}
		rd.reqs[g] = s.pending[g][:k:k]
		s.pending[g] = s.pending[g][k:]
		dispatched += k
		s.batchSum += int64(k)
	}
	s.traceDepth(p.Now())
	for g := range s.sampQ {
		if s.alive(g) {
			s.sampQ[g].Put(p, rd)
		}
	}
}

// retryBackoff is the deterministic pause before re-running a round whose
// collective attempt was aborted by a membership change (scaled linearly by
// attempt number). It models the reinitialisation of the communicator under
// the reduced fleet.
const retryBackoff sim.Time = 50e-6

// runRound executes one retryable unit of collective work: body runs under a
// membership generation opened by begin, and is re-run from scratch (after a
// deterministic backoff) whenever a mid-round death voids the attempt. The
// round-level retry is consistent because every collective ends in a single
// barrier release: at any crash instant, either all live ranks already passed
// the round's last collective (only local work remains) or all of them abort
// and repeat the round together under the new membership. Kill-unwinds of the
// dead GPU's own workers (not fault.Aborted) pass through untouched. retried
// reports whether an attempt was voided before the one that completed.
func runRound(p *sim.Proc, begin func(), body func()) (retried bool) {
	for attempt := 0; ; attempt++ {
		if func() (done bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(fault.Aborted); !ok {
						panic(r)
					}
					p.Sleep(retryBackoff * sim.Time(attempt+1))
				}
			}()
			begin()
			body()
			return true
		}() {
			return attempt > 0
		}
	}
}

// sampler is GPU g's sampling worker: every round is a collective CSP call
// (idle GPUs pass empty seed sets but still serve remote tasks), seeded by
// the controller's round seed so all ranks agree without a seed exchange.
func (s *Server) sampler(p *sim.Proc, g int) {
	for {
		rd, ok := s.sampQ[g].Get(p)
		if !ok {
			s.execQ[g].Close()
			return
		}
		runRound(p, func() { s.world.Comm.Begin(g) }, func() {
			p.Sleep(stageOverhead)
			seeds := make([]graph.NodeID, len(rd.reqs[g]))
			for i, r := range rd.reqs[g] {
				seeds[i] = r.Node
			}
			mb := s.world.SampleBatchShared(p, g, seeds, s.cfg.Sample, rd.seed)
			s.execQ[g].Put(p, execItem{rd: rd, mb: mb, sampledAt: p.Now()})
		})
	}
}

// executor is GPU g's execution worker: the strategy's Load (DSP: local
// gather + NVLink all-to-all + UVA, in parallel; p3: the push exchange) then
// its forward-only Infer, completing every request of the round. It is the
// batch's last reader and releases it to the sampler world — unless an
// attempt was voided, whose staged gather may still be reading the batch on
// a worker thread: that batch is dropped.
func (s *Server) executor(p *sim.Proc, g int) {
	for {
		it, ok := s.execQ[g].Get(p)
		if !ok {
			s.dones[g].Trigger()
			return
		}
		var preds []int32
		// Tier counts ride on the attempt's Loaded and commit only on success
		// (the report counts each served request's rows once); the fabric byte
		// counters have no such rollback — an aborted round's wire traffic
		// really crossed the links. The manager's hotness counters likewise
		// record every attempt inside Split: the accesses are real.
		var l strategy.Loaded
		var loaded sim.Time
		retried := runRound(p, func() { s.execComm.Begin(g) }, func() {
			p.Sleep(stageOverhead)
			l = s.sub.Strategy.Load(p, g, it.mb, s.execComm)
			loaded = p.Now()
			preds = s.sub.Strategy.Infer(p, g, l)
		})
		if !retried {
			s.world.Release(g, it.mb)
		}
		s.sub.Cache.Account(g, l.Tiers)
		now := p.Now()
		batch := len(it.rd.reqs[g])
		for i, req := range it.rd.reqs[g] {
			req.Start = it.rd.start
			req.Done = now
			req.Round = it.rd.id
			req.Batch = batch
			if preds != nil {
				req.Pred = preds[i]
			}
			s.latency[g].Observe(float64(req.Latency()))
			if s.goodput != nil {
				s.goodput.Observe(float64(now), float64(req.Latency()))
			}
			s.completed = append(s.completed, req)
			s.cfg.Telemetry.ObserveRequest(telemetry.RequestSample{
				ID: req.ID, GPU: g, Round: it.rd.id,
				Arrival: req.Arrival, Dispatch: it.rd.start,
				Sampled: it.sampledAt, Loaded: loaded, Done: now,
			})
			if s.onComplete != nil {
				s.onComplete(req)
			}
			if s.cfg.Tracer.Enabled() {
				s.cfg.Tracer.Complete(fmt.Sprintf("req %d", req.ID), "request",
					g, trace.LaneRequests, float64(req.Arrival), float64(now),
					map[string]string{"node": fmt.Sprint(req.Node), "round": fmt.Sprint(req.Round)})
			}
		}
		if s.cfg.Tracer.Enabled() {
			s.cfg.Tracer.Complete(fmt.Sprintf("round %d", it.rd.id), "serve",
				g, trace.LaneRounds, float64(it.rd.start), float64(now),
				map[string]string{"batch": fmt.Sprint(batch)})
		}
	}
}
