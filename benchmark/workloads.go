package main

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/featstore"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/train"
)

// The workload configurations are pinned here rather than imported from
// internal/bench, so the sweeps there can change without moving the
// benchmark.

// latencyScale matches the stand-ins' batch-count shrink (see internal/bench's
// package comment): per-batch fixed costs are divided by it.
const latencyScale = 25

// scale selects the dataset size and repetition count.
type scale struct {
	name    string
	shrink  func(full int) int // dataset shrink factor from the workload's own
	minReps int                // measured repetitions, at least
	horizon float64            // serve arrival window, virtual seconds
	microNS int64              // host time budget of one micro-benchmark loop
	// valAccFloor is the validation accuracy train-real must reach by its
	// last epoch; the tiny scale trains too briefly to be held to one.
	valAccFloor float64
}

var (
	// fullScale is what BENCHMARK.json runs. 8 is the issue's floor on
	// repetitions; the workloads are sized so 8 fit in the contract's window.
	fullScale = scale{name: "full", shrink: func(s int) int { return s }, minReps: 8, horizon: 0.5, microNS: 100e6, valAccFloor: 0.9}
	// tinyScale is the smoke test's: everything at shrink 16, two repetitions.
	tinyScale = scale{name: "tiny", shrink: func(int) int { return 16 }, minReps: 2, horizon: 0.05, microNS: 2e6}
)

// spec pins one workload.
type spec struct {
	name    string
	dataset string
	gpus    int
	shrink  int
	// trainFrac overrides the generator's 20 % training split (0 keeps it).
	trainFrac float64
	// options fills the system configuration for a prepared dataset; nil for
	// the serving workload.
	options func(td *train.Data, seed uint64) train.Options
}

var specs = map[string]spec{
	wTrainCost: {name: wTrainCost, dataset: "papers", gpus: 8, shrink: 2, options: costOptions},
	// The issue sized train-real at batch 256 over the full 20 % split (~5 s
	// an epoch here). The contract's run window needs 8 epochs in ~12 s, so
	// the epoch is cut by training on a 5 % split at batch 128 — the graph,
	// and with it the sampler's and cache's working set, keeps its size.
	wTrainReal:   {name: wTrainReal, dataset: "products", gpus: 4, shrink: 2, trainFrac: 0.05, options: realOptions},
	wServeOpen:   {name: wServeOpen, dataset: "products", gpus: 4, shrink: 1},
	wTrainTiered: {name: wTrainTiered, dataset: "products", gpus: 4, shrink: 1, options: tieredOptions},
}

func scaledV100() hw.GPUSpec {
	g := hw.V100()
	g.KernelLaunch /= latencyScale
	g.MallocOverhead /= latencyScale
	return g
}

// costOptions is the paper's headline configuration: 3-layer GraphSAGE hidden
// 256, fan-out [15,10,5] (train.Options defaults), pipeline + CCC, int8
// gradients, cost-only compute.
func costOptions(td *train.Data, seed uint64) train.Options {
	return train.Options{
		Data:         td,
		GPU:          scaledV100(),
		BatchSize:    td.BenchBatch,
		Pipeline:     true,
		UseCCC:       true,
		Seed:         seed,
		LatencyScale: latencyScale,
		Parallel:     1,
		GradCodec:    compress.NewInt8(seed),
	}
}

func realOptions(td *train.Data, seed uint64) train.Options {
	o := costOptions(td, seed)
	o.RealCompute = true
	o.Model = nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 64, Classes: td.NumClasses, Layers: 3}
	o.BatchSize = 128
	if len(td.Shards[0]) < 2*o.BatchSize {
		// Tiny scale: keep at least two steps an epoch.
		o.BatchSize = max(8, len(td.Shards[0])/2)
	}
	return o
}

func tieredOptions(td *train.Data, seed uint64) train.Options {
	o := costOptions(td, seed)
	o.CompressTopology = true
	o.OOC = true
	o.FeatCodec = compress.NewInt8(seed + 1)
	o.DynamicCache = cache.LFUDecay
	o.FeatureCacheBudget = 1 << 20
	return o
}

// ladderPoint is one offered load of the serving ladder.
type ladderPoint struct {
	name     string
	rate     float64
	batching serve.Batching
}

var ladder = []ladderPoint{
	{"light", 2000, serve.BatchDynamic},
	{"nominal", 32000, serve.BatchDynamic},
	{"overload", 16000, serve.BatchSingle}, // admission control sheds about half
}

const (
	ptLight = iota
	ptNominal
	ptOverload
)

// nominalP99Limit is the serving latency limit: nominal p99, virtual seconds.
const nominalP99Limit = 5e-3

func serveConfig(td *train.Data, seed uint64, pt ladderPoint, horizon float64) serve.Config {
	return serve.Config{
		Data:     td,
		Seed:     seed,
		Duration: sim.Time(horizon),
		Rate:     pt.rate,
		Skew:     0.8,
		Batching: pt.batching,
		UseCCC:   true,
		Parallel: 1,
	}
}

// setupTimes is where one set-up's host time went.
type setupTimes struct {
	generate, prepare, build float64
}

func (t setupTimes) total() float64 { return t.generate + t.prepare + t.build }

// built is a workload ready to run repetitions.
type built struct {
	spec  spec
	scale scale
	seed  uint64
	raw   *gen.Dataset
	data  *train.Data
	times setupTimes
	inst  instance
}

// facts are the virtual-clock results of one repetition: bit-identical for
// the same seed on any host, which the correctness checks rely on.
type facts struct {
	LatencyS  float64 // train: epoch time; serve: nominal p99
	Work      float64 // train: seeds trained; serve: nominal completions
	VirtS     float64 // virtual seconds the work took
	WireBytes int64
	Attempted int
	Failed    int
}

// instance runs repetitions of a built workload.
type instance interface {
	// rep runs repetition i; i = 0 is the warm-up. Training repetitions are
	// consecutive epochs of one system, so they must be called in order.
	rep(i int) (facts, error)
	// attach makes later repetitions record into the repo's tracer.
	attach(tr *trace.Tracer)
	// check adds the workload's own correctness checks over the measured
	// repetitions' results.
	check(ck *checker, measured []facts)
}

// partitionSeed seeds METIS. The stand-in graphs keep the generator seeds of
// gen's registry.
const partitionSeed = 2023

// setup generates the workload's dataset, partitions it and builds the system
// at Parallel = 1 (as every end-to-end number wants), timing each step.
//
// The dataset and its partition are pinned: they are the database the run
// works on. seed drives the run itself — epoch shuffles, sampling draws, the
// codecs' stochastic rounding, request arrivals and popularity — so two seeds
// give two different input streams over the same graph. (Seeding the graph
// too, as the issue first asked, made every metric vary by 1–7 % from seed to
// seed, which would have forced every bound that wide.)
func setup(rec *recorder, sp spec, sc scale, seed uint64) (*built, error) {
	b := &built{spec: sp, scale: sc, seed: seed}
	std := gen.StandardDataset(sp.dataset, sc.shrink(sp.shrink))
	if sp.trainFrac > 0 {
		std.Config.TrainFrac = sp.trainFrac
	}
	b.times.generate = rec.do("gen", "Generate", func() { b.raw = gen.Generate(std.Config) })
	b.times.prepare = rec.do("train", "Prepare", func() {
		b.data = train.Prepare(b.raw, sp.gpus, partitionSeed, true)
		b.data.ScaleFactor = std.ScaleFactor
		b.data.GPUMemBytes = std.GPUMemBytes()
		b.data.BenchBatch = std.BenchBatch
	})
	var err error
	b.times.build = rec.do("core", "build", func() { b.inst, err = newInstance(b, 1) })
	return b, err
}

// newInstance builds another system over the same prepared data (cheap next
// to Prepare), for the traced and the parallel repetitions.
func newInstance(b *built, parallel int) (instance, error) {
	if b.spec.options == nil {
		// Every ladder point builds its own server inside serve.Serve; this
		// one is never run. It stands for the build cost in set-up time and
		// gives the per-layer replays the workload's feature store.
		probe, err := serve.NewServer(serveConfig(b.data, b.seed, ladder[ptNominal], b.scale.horizon))
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", b.spec.name, err)
		}
		return &serveInstance{b: b, parallel: parallel, probe: probe}, nil
	}
	opts := b.spec.options(b.data, b.seed)
	opts.Parallel = parallel
	sys, err := core.New(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", b.spec.name, err)
	}
	ti := &trainInstance{b: b, sys: sys, opts: sys.Opts}
	for _, s := range b.data.Shards {
		ti.shardTotal += len(s)
	}
	return ti, nil
}

// trainInstance: one repetition is one epoch (a closed loop of BSP steps).
type trainInstance struct {
	b          *built
	sys        *core.DSP
	opts       train.Options
	shardTotal int
	last       train.EpochStats
	losses     []float64 // per epoch, index = repetition
	epochTimes []float64 // virtual seconds per epoch, index = repetition
	gradWire   int64     // Σ EpochStats.GradWire, checked against comm's counters
}

func (t *trainInstance) attach(tr *trace.Tracer) { t.sys.Machine().SetTracer(tr) }

func (t *trainInstance) rep(i int) (facts, error) {
	st, err := t.sys.RunEpoch(i)
	if err != nil {
		return facts{}, fmt.Errorf("%s: epoch %d: %w", t.b.spec.name, i, err)
	}
	t.last = st
	t.losses = append(t.losses, st.Loss)
	t.epochTimes = append(t.epochTimes, float64(st.EpochTime))
	t.gradWire += st.GradWire
	f := facts{
		LatencyS:  float64(st.EpochTime),
		Work:      float64(t.shardTotal),
		VirtS:     float64(st.EpochTime),
		WireBytes: st.SampleWire + st.FeatureWire + st.GradWire,
		Attempted: t.sys.Steps() * t.b.spec.gpus,
	}
	if t.opts.RealCompute && st.Seen != t.shardTotal {
		f.Failed = f.Attempted // the epoch skipped or repeated seeds
	}
	if t.opts.RealCompute && (math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0)) {
		f.Failed = f.Attempted
	}
	return f, nil
}

// serveInstance: one repetition is the three-point ladder. It is an open
// loop whose Poisson generator runs in virtual time, so the generator is
// never late: lateness is zero by construction.
type serveInstance struct {
	b        *built
	parallel int
	probe    *serve.Server
	tracer   *trace.Tracer
	reports  [3]*serve.Report
}

func (s *serveInstance) attach(tr *trace.Tracer) { s.tracer = tr }

func (s *serveInstance) rep(int) (facts, error) {
	var f facts
	for k, pt := range ladder {
		cfg := serveConfig(s.b.data, s.b.seed, pt, s.b.scale.horizon)
		cfg.Parallel = s.parallel
		if k == ptNominal {
			cfg.Tracer = s.tracer
		}
		r, err := serve.Serve(cfg)
		if err != nil {
			return facts{}, fmt.Errorf("%s: %s: %w", s.b.spec.name, pt.name, err)
		}
		s.reports[k] = r
		f.WireBytes += r.SampleWire + r.FeatureWire + r.PushWire
		if r.Arrived != r.Completed+r.Shed+r.Lost {
			return facts{}, fmt.Errorf("%s: %s: arrived %d != completed %d + shed %d + lost %d",
				s.b.spec.name, pt.name, r.Arrived, r.Completed, r.Shed, r.Lost)
		}
		if k != ptOverload {
			f.Attempted += r.Arrived
			f.Failed += r.Shed + r.Lost
		}
	}
	nom := s.reports[ptNominal]
	f.LatencyS = nom.Latency.P99()
	f.Work = float64(nom.Completed)
	f.VirtS = float64(nom.Makespan)
	return f, nil
}

// trainOptions returns the training system's options; the zero Options for
// the serving workload, which has no codecs and no real compute.
func (b *built) trainOptions() train.Options {
	if ti, ok := b.inst.(*trainInstance); ok {
		return ti.opts
	}
	return train.Options{}
}

// featureStore returns the workload's feature store.
func (b *built) featureStore() *featstore.Store {
	switch inst := b.inst.(type) {
	case *trainInstance:
		return inst.sys.Store()
	case *serveInstance:
		return inst.probe.Store()
	}
	return nil
}

// replayBatch is one rank's seed set of one collective step, with the
// sampling seed the system under test used for it.
type replayBatch struct {
	rank  int
	seeds []graph.NodeID
	seed  uint64
}

// replayInputs returns the seed batches of one repetition grouped by
// collective step (every rank appears in every step, possibly empty), the
// sampler configuration and the model — the real inputs the per-layer
// replays run on.
func (b *built) replayInputs(rep int) (steps [][]replayBatch, scfg sample.Config, model nn.Config) {
	switch inst := b.inst.(type) {
	case *trainInstance:
		o := inst.opts
		sched := train.NewSchedule(b.data, o.BatchSize)
		for step := 0; step < sched.Steps; step++ {
			var row []replayBatch
			for rank := 0; rank < b.spec.gpus; rank++ {
				row = append(row, replayBatch{rank, sched.Batch(b.data, o.Seed, rep, step, rank),
					train.BatchSeed(o.Seed, rep, step, rank)})
			}
			steps = append(steps, row)
		}
		return steps, o.Sample, o.Model
	case *serveInstance:
		// Rebuild each dispatch round's per-GPU request set from the
		// completed requests of all three ladder points.
		for k, r := range inst.reports {
			if r == nil {
				continue
			}
			rounds := map[int][]replayBatch{}
			maxRound := -1
			for _, q := range r.Requests {
				row := rounds[q.Round]
				if row == nil {
					row = make([]replayBatch, b.spec.gpus)
					for g := range row {
						row[g] = replayBatch{rank: g, seed: uint64(k)<<32 | uint64(q.Round)}
					}
					rounds[q.Round] = row
				}
				row[q.GPU].seeds = append(row[q.GPU].seeds, q.Node)
				maxRound = max(maxRound, q.Round)
			}
			for i := 0; i <= maxRound; i++ {
				if row, ok := rounds[i]; ok {
					steps = append(steps, row)
				}
			}
		}
		// serve.Config's defaults, which the ladder uses unchanged.
		return steps, sample.Config{Fanout: []int{10, 5}},
			nn.Config{Arch: nn.SAGE, InDim: b.data.FeatDim, Hidden: 64, Classes: b.data.NumClasses, Layers: 2}
	}
	return nil, sample.Config{}, nn.Config{}
}
