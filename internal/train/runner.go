package train

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/sim"
)

// Window is what the epoch bracket measures: the machines whose GPUs run the
// workers (one machine, or the machines of a cluster sharing one engine) and
// the counter set read before and after.
type Window struct {
	Machines []*hw.Machine
	// Counters returns the cumulative counters of everything the epoch
	// drives (strategy.Window sums its substrates' snapshots); nil reads the
	// machines' fabrics alone, which is all a baseline system counts.
	Counters func() Counters
	// Boundary, when set, runs as its own engine pass once the workers are
	// done — the epoch-boundary cache rebalance. Its duration is added to
	// EpochTime and what it counts stays inside the epoch's delta.
	Boundary func(p *sim.Proc)
}

// RunEpoch is the one epoch entry point every training path shares. It
// snapshots the window's counters, resets the busy clocks, spawns on every GPU
// (machine-major, rank order) the workers of the stages stagesFor builds —
// restricted to steps [from, to), the partial-epoch replay primitive of the
// fault-tolerance driver; to < 0 keeps the builder's NumBatches — runs the
// engine to quiescence, runs the boundary pass, and folds the per-GPU stats,
// the utilization and the counter delta into one EpochStats.
//
// pipelined selects the producer-consumer pipeline; otherwise stages run back
// to back (DSP-Seq and all baseline systems). Either runner pays, times and
// traces every stage; RunEpoch hands it the GPU's tracer and the rank's
// distributions.
func RunEpoch[S, L any](w Window, epoch, from, to int, pipelined bool, queueCap int,
	stagesFor func(machine, rank int, st *EpochStats) pipeline.Stages[S, L]) (EpochStats, error) {
	if w.Counters == nil {
		w.Counters = func() Counters { return FabricCounters(w.Machines...) }
	}
	eng := w.Machines[0].Eng
	start := eng.Now()
	before := w.Counters()
	var stats []*EpochStats
	var dones []*sim.Event
	for mi, m := range w.Machines {
		for rank, g := range m.GPUs {
			g.ResetBusy()
			st := &EpochStats{SampleDist: metrics.New(), LoadDist: metrics.New(), TrainDist: metrics.New()}
			done := eng.NewEvent()
			stats, dones = append(stats, st), append(dones, done)
			stages := stagesFor(mi, rank, st)
			stages.FirstBatch = from
			if to >= 0 {
				stages.NumBatches = to
			}
			stages.SampleDist, stages.LoadDist, stages.TrainDist = st.SampleDist, st.LoadDist, st.TrainDist
			stages.Tracer, stages.Pid = g.Tracer, rank
			if pipelined {
				pipeline.RunPipelined(eng, workerName(m, rank), stages, queueCap, done)
			} else {
				pipeline.RunSequential(eng, workerName(m, rank), stages, done)
			}
		}
	}
	end, err := eng.Run()
	if err != nil {
		return EpochStats{}, err
	}
	for _, d := range dones {
		if !d.Fired() {
			return EpochStats{}, fmt.Errorf("train: epoch did not complete on all GPUs")
		}
	}
	out := EpochStats{Epoch: epoch}
	for _, st := range stats {
		out.Add(*st)
	}
	out.EpochTime = end - start
	for _, m := range w.Machines {
		out.Utilization = append(out.Utilization, m.Utilization(start, end)...)
	}
	if w.Boundary != nil {
		eng.Go("epoch/boundary", w.Boundary)
		done, err := eng.Run()
		if err != nil {
			return out, err
		}
		out.EpochTime += done - end
	}
	out.Counters = w.Counters().Sub(before)
	return out, nil
}

// workerName prefixes the worker processes of m's GPU rank.
func workerName(m *hw.Machine, rank int) string {
	if m.Cluster != nil {
		return fmt.Sprintf("m%dg%d", m.Index, rank)
	}
	return fmt.Sprintf("gpu%d", rank)
}

// Reducer sums a gradient vector in place across every replica of a run, or
// (AllReduceCount) prices the sum of n elements whose values nobody reads.
// *comm.Communicator is the single-machine reducer; a cluster installs a
// hierarchical one (internal/core) on each machine's Trainer.
type Reducer interface {
	AllReduceSum(p *sim.Proc, rank int, data []float32, o comm.Opts)
	AllReduceCount(p *sim.Proc, rank, n int, o comm.Opts)
}

// Trainer is the data-parallel trainer worker shared by every strategy,
// every machine of a cluster and every baseline: forward/backward (real or
// priced only), gradient allreduce, synchronous update. All systems execute
// the same BSP training logic — which is why their accuracy-versus-batch
// curves coincide (Figure 9a).
type Trainer struct {
	Opts Options
	// Comm is the machine's trainer communicator; Reduce the gradient
	// reduction over World replicas (Comm and its GPU count unless a cluster
	// reducer is installed).
	Comm   *comm.Communicator
	Reduce Reducer
	World  int
	// Params is the model's parameter count, the gradient vector's length.
	Params int
	Models []*nn.Model
	Optims []*nn.Adam
	// Grad is each rank's gradient buffer under RealCompute (nil cost-only,
	// where the allreduce is priced by Params alone).
	Grad [][]float32
}

// NewTrainer builds per-rank model replicas (identical seeds) and their
// gradient buffers when RealCompute is set; cost-only it records only the
// parameter count the allreduce is priced by.
func NewTrainer(opts Options, c *comm.Communicator) *Trainer {
	t := &Trainer{Opts: opts, Comm: c, Reduce: c, World: c.N}
	t.Params = nn.NewModel(opts.Model, opts.Seed).ParamCount()
	if opts.RealCompute {
		for g := 0; g < opts.Data.NumGPUs(); g++ {
			t.Grad = append(t.Grad, make([]float32, t.Params))
			t.Models = append(t.Models, nn.NewModel(opts.Model, opts.Seed))
			t.Optims = append(t.Optims, nn.NewAdam(opts.LR))
		}
	}
	return t
}

// GradOpts is the gradient allreduce's default pricing: the configured
// gradient codec on the gradient traffic class.
func (o Options) GradOpts() comm.Opts { return comm.Compressed(o.GradCodec, hw.TrafficGradient) }

// Step runs one mini-batch training step on rank's GPU: the aggregation's
// row traffic (nn.NominalAggBytes) and one compute kernel priced at
// nn.NominalFlops net of the work the strategy has already charged elsewhere
// (P3's layer-0 exchange), then — with the math under RealCompute, by count
// alone otherwise — the gradient reduction under grad, the mean and the
// optimiser update. The price comes from the batch's shapes, so both modes
// spend the same virtual time.
func (t *Trainer) Step(p *sim.Proc, dev *hw.Device, rank int, mb *sample.MiniBatch, feats []float32, st *EpochStats,
	grad comm.Opts, charged int64) {
	if len(mb.Seeds) > 0 {
		dev.RunKernel(p, hw.KernelGather, nn.NominalAggBytes(t.Opts.Model, mb))
		dev.RunKernel(p, hw.KernelCompute, nn.NominalFlops(t.Opts.Model, mb)-charged)
	}
	if !t.Opts.RealCompute {
		// No gradient value exists, so none moves.
		t.Reduce.AllReduceCount(p, rank, t.Params, grad)
		return
	}
	m := t.Models[rank]
	m.ZeroGrads()
	if len(mb.Seeds) > 0 {
		loss, correct := m.TrainStep(mb, feats, SeedLabels(t.Opts.Data, mb))
		st.Loss += loss
		st.Correct += correct
		st.Seen += len(mb.Seeds)
	}
	m.GradVector(t.Grad[rank])
	t.Reduce.AllReduceSum(p, rank, t.Grad[rank], grad)
	inv := float32(1.0) / float32(t.World)
	for i := range t.Grad[rank] {
		t.Grad[rank][i] *= inv
	}
	m.SetGradVector(t.Grad[rank])
	t.Optims[rank].Step(m)
}
