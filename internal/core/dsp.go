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

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/csp"
	"repro/internal/fault"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/train"
)

// DSP is a configured instance of the system on a simulated machine.
type DSP struct {
	Opts train.Options

	// sub is the machine's substrate and execution strategy, assembled by
	// internal/strategy (shared with serving and every cluster machine).
	sub   *strategy.Substrate
	sched train.Schedule
	inj   *fault.Injector
}

// New builds a DSP instance: machine, partitioned topology, feature cache,
// communicators, coordinator and model replicas.
func New(opts train.Options) (*DSP, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	m := hw.NewMachineScaled(opts.Data.NumGPUs(), opts.GPU, opts.CPU, opts.LatencyScale)
	m.Eng.SetParallelism(opts.Parallel)
	sub, err := strategy.Build(m, opts, strategy.Training)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &DSP{Opts: opts, sub: sub, sched: train.NewSchedule(opts.Data, opts.BatchSize)}
	if len(opts.Faults) > 0 {
		inj, err := fault.NewInjector(m, opts.Faults)
		if err != nil {
			return nil, fmt.Errorf("core: fault schedule: %w", err)
		}
		s.inj = inj
		sub.Cache.SetView(inj.View())
	}
	return s, nil
}

// Name implements train.System.
func (s *DSP) Name() string {
	if k := s.sub.Strategy.Kind(); k != strategy.KindDSP {
		return "DSP-" + strings.ToUpper(string(k))
	}
	if s.Opts.Pipeline {
		return "DSP"
	}
	return "DSP-Seq"
}

// Counters is the substrate's cumulative counter snapshot; the Counters of
// every EpochStats this instance returned sum to it.
func (s *DSP) Counters() train.Counters { return s.sub.Counters() }

// Machine implements train.System.
func (s *DSP) Machine() *hw.Machine { return s.sub.M }

// AttachTelemetry registers the substrate's scrape sources on the hub and
// starts its scraper daemon on this instance's engine. Call before the first
// epoch; the scraper daemon survives each epoch's Run-to-quiescence, so one
// hub spans a multi-epoch loop.
func (s *DSP) AttachTelemetry(h *telemetry.Hub) {
	if !h.Enabled() {
		return
	}
	s.sub.Observe(h, "")
	h.Start(s.sub.M.Eng)
}

// Model implements train.System.
func (s *DSP) Model() *nn.Model {
	if len(s.sub.Trainer.Models) == 0 {
		return nil
	}
	return s.sub.Trainer.Models[0]
}

// Replicas returns every per-GPU model replica (empty in cost-only mode).
func (s *DSP) Replicas() []*nn.Model { return s.sub.Trainer.Models }

// Store exposes the feature cache (for cache-layout assertions in tests).
func (s *DSP) Store() *featstore.Store { return s.sub.Store }

// World exposes the CSP world (for comm-volume measurements).
func (s *DSP) World() *csp.World { return s.sub.Worlds[0] }

// Compression is the cumulative codec accounting of every communicator the
// system drives, indexed by traffic class.
func (s *DSP) Compression() [hw.TrafficOther + 1]comm.CompressionStats {
	return s.sub.Counters().Codec
}

// batch names (epoch, step)'s seeds and sampling seed for rank.
func (s *DSP) batch(epoch, step, rank int) ([]graph.NodeID, uint64) {
	return s.sched.Batch(s.Opts.Data, s.Opts.Seed, epoch, step, rank), train.BatchSeed(s.Opts.Seed, epoch, step, rank)
}

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
	return train.RunEpoch(strategy.Window(to >= s.sched.Steps, s.sub), epoch, from, to,
		s.Opts.Pipeline, s.Opts.QueueCap, s.Opts.EffectiveStageOverhead(),
		func(_, rank int, st *train.EpochStats) pipeline.Stages {
			return s.sub.Stages(rank, s.sched.Steps, st, func(step int) ([]graph.NodeID, uint64) {
				return s.batch(epoch, step, rank)
			})
		})
}

// TopologyResidentBytes reports the world's total resident topology bytes
// (compressed when Opts.CompressTopology), for memory-frontier assertions.
func (s *DSP) TopologyResidentBytes() int64 { return s.sub.Worlds[0].TopologyResidentBytes() }

// Steps implements train.Recoverable.
func (s *DSP) Steps() int { return s.sched.Steps }

// Injector implements train.Recoverable (nil without an Opts.Faults schedule).
func (s *DSP) Injector() *fault.Injector { return s.inj }

// Snapshot implements train.Recoverable. Under BSP every replica is identical
// between steps, so rank 0's parameters and optimizer describe the fleet; in
// cost-only mode the state is the cursor alone.
func (s *DSP) Snapshot(epoch, step int) *ckpt.TrainState {
	st := &ckpt.TrainState{Epoch: epoch, Step: step, Seed: s.Opts.Seed, Model: s.Opts.Model}
	if len(s.sub.Trainer.Models) > 0 {
		m := s.sub.Trainer.Models[0]
		st.Params = make([]float32, m.ParamCount())
		m.ParamVector(st.Params)
		if so, ok := s.sub.Trainer.Optims[0].(nn.StatefulOptimizer); ok {
			st.Optim = so.CaptureState()
		}
	}
	return st
}

// Restore implements train.Recoverable, broadcasting the checkpoint into
// every replica and optimizer.
func (s *DSP) Restore(st *ckpt.TrainState) error {
	if st == nil {
		return fmt.Errorf("core: nil checkpoint")
	}
	if len(s.sub.Trainer.Models) == 0 {
		return nil // cost-only: the cursor is the whole state
	}
	if st.Model != s.Opts.Model {
		return fmt.Errorf("core: checkpoint model %+v does not match %+v", st.Model, s.Opts.Model)
	}
	for g, m := range s.sub.Trainer.Models {
		if len(st.Params) != m.ParamCount() {
			return fmt.Errorf("core: checkpoint has %d params, model wants %d", len(st.Params), m.ParamCount())
		}
		m.SetParamVector(st.Params)
		if so, ok := s.sub.Trainer.Optims[g].(nn.StatefulOptimizer); ok {
			so.RestoreState(m, st.Optim)
		}
	}
	return nil
}

// RunSampleEpoch implements train.System: only the samplers run (Table 6).
func (s *DSP) RunSampleEpoch(epoch int) (train.EpochStats, error) {
	return train.SampleEpoch(s.sub.M, epoch, s.sched.Steps, s.Opts.EffectiveStageOverhead(),
		func(p *sim.Proc, rank, step int) {
			seeds, seed := s.batch(epoch, step, rank)
			s.sub.Sample(p, s.sub.Worlds[0], rank, seeds, seed)
		})
}

// RandomWalkEpoch runs one pass of random walks from every shard seed (the
// DeepWalk-style workload of the random-walk example).
func (s *DSP) RandomWalkEpoch(length int) (map[int][][]graph.NodeID, sim.Time, error) {
	n := s.Opts.Data.NumGPUs()
	eng := s.sub.M.Eng
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
