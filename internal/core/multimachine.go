package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/train"
)

// MultiDSP extends DSP to a cluster, following paper §3.2: "DSP replicates
// the graph topology and hot features across the machines and partitions
// the cold features among the machines. Thus, the machines only communicate
// for cold features and model synchronization."
//
// Every machine runs the full single-machine design: the same substrate and
// the same strategy round bodies as core.DSP and serving, built by
// strategy.Build on the cluster's machines. What is written here is only
// what a cluster adds — the topology, the striding of each shard's batches
// across machines, and the hierarchical gradient reducer (intra-machine
// NVLink allreduce, inter-machine ring over the NICs between machine
// leaders, cluster barrier). Cold rows owned by another machine's CPU memory
// cross the NIC inside strategy.DSP.Load.
type MultiDSP struct {
	Opts        train.Options
	NumMachines int

	cluster *hw.Cluster
	subs    []*strategy.Substrate // one per machine
	steps   int

	// Inter-machine reduction rendezvous.
	interBarrier *sim.Barrier
	interSlots   [][]float32
}

// NewMulti builds a cluster-wide DSP instance with machines copies of the
// prepared data's layout. The prepared Data must be partitioned for the
// per-machine GPU count.
func NewMulti(opts train.Options, machines int, net hw.NetworkSpec) (*MultiDSP, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if machines < 1 {
		return nil, fmt.Errorf("core: need at least one machine")
	}
	// Fail-stop recovery lives in the single-machine driver (the injector
	// and the checkpoint loop know one machine), and the out-of-core tier
	// assumes one host memory under what a cluster shards as cold rows.
	switch {
	case opts.OOC:
		return nil, fmt.Errorf("core: multi-machine DSP does not support OOC")
	case len(opts.Faults) > 0:
		return nil, fmt.Errorf("core: multi-machine DSP does not support Faults")
	}
	d := opts.Data
	n := d.NumGPUs()
	s := &MultiDSP{Opts: opts, NumMachines: machines}
	s.cluster = hw.NewCluster(machines, n, opts.GPU, opts.CPU, net, opts.LatencyScale)
	s.cluster.Eng.SetParallelism(opts.Parallel)
	s.interBarrier = s.cluster.Eng.NewBarrier(machines * n)
	s.interSlots = make([][]float32, machines)
	for m, mach := range s.cluster.Machines {
		sub, err := strategy.Build(mach, opts, strategy.Training)
		if err != nil {
			return nil, fmt.Errorf("core: machine %d: %w", m, err)
		}
		sub.Trainer.Reduce = clusterReducer{s, m}
		sub.Trainer.World = machines * n
		s.subs = append(s.subs, sub)
	}
	// Steps: each machine consumes a 1/machines stride of every shard.
	for _, shard := range d.Shards {
		per := (len(shard) + machines - 1) / machines
		s.steps = max(s.steps, (per+opts.BatchSize-1)/opts.BatchSize)
	}
	return s, nil
}

// Name implements train.System-style identification.
func (s *MultiDSP) Name() string {
	return fmt.Sprintf("DSP-%dx%d", s.NumMachines, s.Opts.Data.NumGPUs())
}

// Cluster exposes the simulated cluster.
func (s *MultiDSP) Cluster() *hw.Cluster { return s.cluster }

// Model returns machine 0 / rank 0's replica (nil in cost-only mode).
func (s *MultiDSP) Model() *nn.Model {
	if len(s.subs[0].Trainer.Models) == 0 {
		return nil
	}
	return s.subs[0].Trainer.Models[0]
}

// Steps returns batches per epoch per worker.
func (s *MultiDSP) Steps() int { return s.steps }

// clusterReducer is machine's hierarchical gradient reduction.
type clusterReducer struct {
	s       *MultiDSP
	machine int
}

// AllReduceSum implements train.Reducer: an intra-machine allreduce over
// NVLink (codec-aware: the machine sum already carries the gradient codec's
// quantisation error), then an inter-machine ring between machine leaders
// (rank 0), then the global sum is re-established on every replica. The
// rendezvous is a full cluster barrier: trainer steps are aligned across
// machines. Each leader posts its machine sum as the remote machines would
// decode it (codec round-trip), so the cross-machine reduction is lossy
// exactly once per hop and every replica still sums identical images.
func (r clusterReducer) AllReduceSum(p *sim.Proc, rank int, grad []float32, o comm.Opts) {
	s, machine := r.s, r.machine
	s.subs[machine].Trainer.Comm.AllReduceSum(p, rank, grad, o)
	if s.NumMachines == 1 {
		return
	}
	if rank == 0 {
		posted := compress.Roundtrip(o.Codec, grad)
		s.interSlots[machine] = append(s.interSlots[machine][:0], posted...)
		next := (machine + 1) % s.NumMachines
		bytes := max(compress.WireBytes(o.Codec, len(grad))/int64(s.NumMachines), 1)
		for step := 0; step < 2*(s.NumMachines-1); step++ {
			s.cluster.Net.Send(p, machine, next, bytes, hw.TrafficGradient)
		}
	}
	s.interBarrier.Arrive(p)
	// Deterministic global sum from the posted machine sums.
	for i := range grad {
		var sum float32
		for m := 0; m < s.NumMachines; m++ {
			sum += s.interSlots[m][i]
		}
		grad[i] = sum
	}
	s.interBarrier.Arrive(p)
}

// RunEpoch executes one cluster-wide training epoch: rank's shard is
// shuffled per epoch (the shared permutation) and the machines take
// interleaved batch-sized slices of it.
func (s *MultiDSP) RunEpoch(epoch int) (train.EpochStats, error) {
	o := s.Opts
	sched := train.Schedule{BatchSize: o.BatchSize, Steps: s.steps}
	return train.RunEpoch(strategy.Window(true, s.subs...), epoch, 0, -1,
		o.Pipeline, o.QueueCap, o.EffectiveStageOverhead(),
		func(m, g int, st *train.EpochStats) pipeline.Stages {
			return s.subs[m].Stages(g, s.steps, st, func(step int) ([]graph.NodeID, uint64) {
				stride := step*s.NumMachines + m
				return sched.Batch(o.Data, o.Seed, epoch, stride, g), train.BatchSeed(o.Seed, epoch, stride, g)
			})
		})
}
