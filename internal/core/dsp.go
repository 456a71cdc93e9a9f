// Package core implements DSP — Distributed Sampling and Pipelining — the
// paper's multi-GPU GNN training system.
//
// Data layout: the graph topology is METIS-partitioned into patches, one per
// GPU (internal/csp); remaining device memory caches the hottest feature
// rows of each GPU's own patch, forming a partitioned aggregate cache
// (internal/featstore); seed nodes are co-partitioned with the topology.
//
// Per mini-batch, three workers run on every GPU: the sampler builds graph
// samples with the collective sampling primitive, the loader fetches
// features (NVLink all-to-all for hot rows, UVA for cold rows, in
// parallel), and the trainer computes gradients and allreduces them. The
// workers of different mini-batches overlap through bounded queues
// (capacity 2), and all communication kernels launch under centralized
// communication coordination to stay deadlock-free.
package core

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/csp"
	"repro/internal/fault"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/train"
)

// DSP is a configured instance of the system on one simulated machine or on a
// cluster of them (paper §3.2, see multimachine.go). Every machine runs the
// full single-machine design: one substrate per machine, built by
// strategy.Build, all on one engine.
type DSP struct {
	Opts train.Options

	subs  []*strategy.Substrate // one per machine
	sched train.Schedule
	injs  []*fault.Injector // one per machine when Opts.Faults is set
}

// New builds a DSP instance on one stand-alone machine: partitioned topology,
// feature cache, communicators, coordinator and model replicas.
func New(opts train.Options) (*DSP, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	m := hw.NewMachineScaled(opts.Data.NumGPUs(), opts.GPU, hw.XeonE5(), opts.LatencyScale)
	return build(opts, []*hw.Machine{m})
}

// NewSystem builds a training system by name: "dsp", "dsp-seq" (DSP without
// the pipeline) or any baselines.Parse name but FastGCN, which runs sampling
// epochs only, case-insensitively and with the hyphen optional. Each
// constructor refuses the options it cannot honour; the sequential build also
// refuses the p3 strategy, which Name has no row for.
func NewSystem(name string, opts train.Options) (train.System, error) {
	var (
		sys train.System
		err error
	)
	switch strings.ReplaceAll(strings.ToLower(name), "-", "") {
	case "dsp":
		sys, err = New(opts)
	case "dspseq":
		if k, _ := strategy.Parse(opts.Strategy); k == strategy.KindP3 {
			return nil, fmt.Errorf("core: %s does not honour Strategy p3 (-strategy p3 requires -system dsp)", name)
		}
		opts.Pipeline = false
		sys, err = New(opts)
	default:
		kind, perr := baselines.Parse(name)
		switch {
		case perr != nil:
			return nil, fmt.Errorf("core: unknown system %q (want dsp, dsp-seq, pyg, dgl-cpu, dgl-uva or quiver)", name)
		case kind == baselines.FastGCN:
			return nil, fmt.Errorf("core: -system %s runs sampling epochs only, so it cannot train (dspbench's table7 measures it)", name)
		}
		sys, err = baselines.New(kind, opts)
	}
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// NewMulti builds a cluster-wide DSP instance: machines identical servers
// joined by net, each with the prepared data's layout (the prepared Data must
// be partitioned for the per-machine GPU count).
func NewMulti(opts train.Options, machines int, net hw.NetworkSpec) (*DSP, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if machines < 1 {
		return nil, fmt.Errorf("core: need at least one machine")
	}
	// The out-of-core tier models one host memory. On a cluster each machine's
	// store would have to hold only its cold shard, and a foreign row's fetch
	// would have to touch the owner's store, which strategy.DSP.Load cannot
	// reach from an hw.Machine.
	if opts.OOC {
		return nil, fmt.Errorf("core: multi-machine DSP does not support OOC")
	}
	return build(opts, hw.NewCluster(machines, opts.Data.NumGPUs(), opts.GPU, hw.XeonE5(), net, opts.LatencyScale).Machines)
}

// build assembles the system over machines (one stand-alone, or a cluster's on
// one engine) from resolved options.
func build(opts train.Options, machines []*hw.Machine) (*DSP, error) {
	machines[0].Eng.SetParallelism(opts.Parallel)
	s := &DSP{Opts: opts, sched: train.NewClusterSchedule(opts.Data, opts.BatchSize, len(machines))}
	for _, m := range machines {
		sub, err := strategy.Build(m, opts, strategy.Training)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		s.subs = append(s.subs, sub)
		if len(opts.Faults) > 0 {
			// Fault GPU ids are cluster-wide; each machine's injector keeps
			// its own share of the schedule.
			inj, err := fault.NewInjector(m, opts.Faults)
			if err != nil {
				return nil, fmt.Errorf("core: fault schedule: %w", err)
			}
			s.injs = append(s.injs, inj)
			sub.Cache.SetView(inj.View())
		}
	}
	// A single machine keeps its trainer communicator as the reducer.
	if len(machines) > 1 {
		installClusterReducer(s.subs)
	}
	return s, nil
}

// Name implements train.System.
func (s *DSP) Name() string {
	if k := s.subs[0].Strategy.Kind(); k != strategy.KindDSP {
		return "DSP-" + strings.ToUpper(string(k))
	}
	if s.Opts.Pipeline {
		return "DSP"
	}
	return "DSP-Seq"
}

// Counters is the substrates' cumulative counter snapshot; the Counters of
// every EpochStats this instance returned sum to it.
func (s *DSP) Counters() train.Counters { return s.window(false).Counters() }

// Machine implements train.System: machine 0, whose engine every machine of a
// cluster shares.
func (s *DSP) Machine() *hw.Machine { return s.subs[0].M }

// AttachTelemetry registers every substrate's scrape sources on the hub —
// unprefixed on one machine, under m<i>/ on a cluster — and starts its scraper
// daemon on this instance's engine. Call before the first epoch; the scraper
// daemon survives each epoch's Run-to-quiescence, so one hub spans a
// multi-epoch loop.
func (s *DSP) AttachTelemetry(h *telemetry.Hub) {
	if !h.Enabled() {
		return
	}
	for i, sub := range s.subs {
		prefix := ""
		if len(s.subs) > 1 {
			prefix = fmt.Sprintf("m%d/", i)
		}
		sub.Observe(h, prefix)
	}
	h.Start(s.Machine().Eng)
}

// Model implements train.System: machine 0 / rank 0's replica.
func (s *DSP) Model() *nn.Model {
	if len(s.subs[0].Trainer.Models) == 0 {
		return nil
	}
	return s.subs[0].Trainer.Models[0]
}

// Replicas returns every per-GPU model replica of every machine (empty in
// cost-only mode).
func (s *DSP) Replicas() []*nn.Model {
	var out []*nn.Model
	for _, sub := range s.subs {
		out = append(out, sub.Trainer.Models...)
	}
	return out
}

// Store exposes the feature cache (for cache-layout assertions in tests);
// every machine of a cluster holds the same layout.
func (s *DSP) Store() *featstore.Store { return s.subs[0].Store }

// World exposes the CSP world (for comm-volume measurements).
func (s *DSP) World() *csp.World { return s.subs[0].Worlds[0] }

// Compression is the cumulative codec accounting of every communicator the
// system drives, indexed by traffic class.
func (s *DSP) Compression() [hw.TrafficOther + 1]comm.CompressionStats {
	return s.Counters().Codec
}

// window is the epoch bracket over every machine's substrate.
func (s *DSP) window(boundary bool) train.Window { return strategy.Window(boundary, s.subs...) }

// RunEpoch implements train.System.
func (s *DSP) RunEpoch(epoch int) (train.EpochStats, error) {
	return s.RunEpochRange(epoch, 0, s.sched.Steps)
}

// RunEpochRange implements train.Recoverable: steps [from, to) of one epoch.
// When the range completes the epoch and a dynamic cache policy is selected,
// the shard rebalance runs at the boundary and its migration cost is charged
// to the epoch's virtual time.
func (s *DSP) RunEpochRange(epoch, from, to int) (train.EpochStats, error) {
	// Epoch-boundary adaptation only when this range reaches the epoch's end
	// — checkpoint segments mid-epoch do not rebalance.
	return train.RunEpoch(s.window(to >= s.sched.Steps), epoch, from, to, s.Opts.Pipeline, s.Opts.QueueCap,
		func(m, rank int, st *train.EpochStats) pipeline.Stages[*sample.MiniBatch, strategy.Loaded] {
			return s.subs[m].Stages(rank, s.sched.Steps, st, func(step int) ([]graph.NodeID, uint64) {
				return s.sched.Step(s.Opts.Data, s.Opts.Seed, epoch, step, m, rank)
			})
		})
}

// TopologyResidentBytes reports one machine's total resident topology bytes
// (compressed when Opts.CompressTopology), for memory-frontier assertions.
func (s *DSP) TopologyResidentBytes() int64 { return s.World().TopologyResidentBytes() }

// Steps implements train.Recoverable.
func (s *DSP) Steps() int { return s.sched.Steps }

// ArmFaults implements train.Recoverable (a no-op without an Opts.Faults
// schedule).
func (s *DSP) ArmFaults(base sim.Time) {
	for _, inj := range s.injs {
		inj.Base = base
		inj.Arm()
	}
}

// Snapshot implements train.Recoverable. Under BSP every replica is identical
// between steps, so machine 0 / rank 0's parameters and optimizer describe
// the fleet; in cost-only mode the state is the cursor alone.
func (s *DSP) Snapshot(epoch, step int) *ckpt.TrainState {
	st := &ckpt.TrainState{Epoch: epoch, Step: step, Seed: s.Opts.Seed, Model: s.Opts.Model}
	if m := s.Model(); m != nil {
		st.Params = make([]float32, m.ParamCount())
		m.ParamVector(st.Params)
		st.Optim = s.subs[0].Trainer.Optims[0].CaptureState()
	}
	return st
}

// Restore implements train.Recoverable, broadcasting the checkpoint into
// every replica and optimizer of every machine.
func (s *DSP) Restore(st *ckpt.TrainState) error {
	if st == nil {
		return fmt.Errorf("core: nil checkpoint")
	}
	if s.Model() == nil {
		return nil // cost-only: the cursor is the whole state
	}
	if st.Model != s.Opts.Model {
		return fmt.Errorf("core: checkpoint model %+v does not match %+v", st.Model, s.Opts.Model)
	}
	for _, sub := range s.subs {
		for g, m := range sub.Trainer.Models {
			if len(st.Params) != m.ParamCount() {
				return fmt.Errorf("core: checkpoint has %d params, model wants %d", len(st.Params), m.ParamCount())
			}
			m.SetParamVector(st.Params)
			sub.Trainer.Optims[g].RestoreState(m, st.Optim)
		}
	}
	return nil
}

// RunSampleEpoch implements train.System: only the samplers run (Table 6).
func (s *DSP) RunSampleEpoch(epoch int) (train.EpochStats, error) {
	return train.SampleEpoch(s.window(false).Machines, epoch, s.sched.Steps, s.Opts.EffectiveStageOverhead(),
		func(p *sim.Proc, m, rank, step int) {
			seeds, seed := s.sched.Step(s.Opts.Data, s.Opts.Seed, epoch, step, m, rank)
			w := s.subs[m].Worlds[0]
			w.Release(rank, s.subs[m].Sample(p, w, rank, seeds, seed))
		})
}

// RandomWalkEpoch runs one pass of random walks from every shard seed on
// machine 0 (the DeepWalk-style workload of the random-walk example).
func (s *DSP) RandomWalkEpoch(length int) (map[int][][]graph.NodeID, sim.Time, error) {
	n := s.Opts.Data.NumGPUs()
	eng := s.Machine().Eng
	start := eng.Now()
	out := make(map[int][][]graph.NodeID, n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		eng.Go(fmt.Sprintf("gpu%d/walker", rank), func(p *sim.Proc) {
			out[rank] = s.World().RandomWalk(p, rank, s.Opts.Data.Shards[rank], length,
				train.BatchSeed(s.Opts.Seed, 0, 0, rank))
		})
	}
	end, err := eng.Run()
	if err != nil {
		return nil, 0, err
	}
	return out, end - start, nil
}
