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
	"repro/internal/trace"
)

// RunEpoch spawns per-GPU workers built by stagesFor and runs the engine to
// completion, collecting timing, utilization and communication-volume stats.
// pipelined selects the producer-consumer pipeline; otherwise stages run
// back to back (DSP-Seq and all baseline systems). Each stage is preceded
// by the host-side framework overhead; in pipelined mode the three workers
// pay it concurrently, which is part of what the pipeline hides.
func RunEpoch(m *hw.Machine, epoch int, pipelined bool, queueCap int, overhead sim.Time,
	stagesFor func(rank int, st *EpochStats) pipeline.Stages) (EpochStats, error) {
	return RunEpochSteps([]*hw.Machine{m}, epoch, 0, -1, pipelined, queueCap, overhead,
		func(_, rank int, st *EpochStats) pipeline.Stages { return stagesFor(rank, st) })
}

// RunEpochSteps is RunEpoch over every GPU of ms (one machine, or the
// machines of a cluster sharing one engine) restricted to steps [from, to) —
// the partial-epoch replay primitive of the fault-tolerance driver. to < 0
// keeps the stage builder's NumBatches (a full epoch from from).
func RunEpochSteps(ms []*hw.Machine, epoch, from, to int, pipelined bool, queueCap int, overhead sim.Time,
	stagesFor func(machine, rank int, st *EpochStats) pipeline.Stages) (EpochStats, error) {
	return MeasureEpoch(ms, epoch, func(machine, rank int, st *EpochStats, done *sim.Event) {
		m := ms[machine]
		stages := stagesFor(machine, rank, st)
		stages.FirstBatch = from
		if to >= 0 {
			stages.NumBatches = to
		}
		stages = withOverhead(stages, overhead)
		stages = withStageTiming(stages, st)
		if tr := m.GPUs[rank].Tracer; tr.Enabled() {
			stages = withTraceSpans(stages, tr, rank)
		}
		name := fmt.Sprintf("gpu%d", rank)
		if m.Cluster != nil {
			name = fmt.Sprintf("m%dg%d", machine, rank)
		}
		if pipelined {
			pipeline.RunPipelined(m.Eng, name, stages, queueCap, done)
		} else {
			pipeline.RunSequential(m.Eng, name, stages, done)
		}
	})
}

// MeasureEpoch is the one epoch bracket every training path shares: reset
// the busy clocks, let spawn start each GPU's workers (machine-major, rank
// order — they accumulate into st and fire done), run the engine to
// quiescence, and fold the per-GPU stats, utilization and per-class fabric
// wire deltas of the window into one EpochStats.
func MeasureEpoch(ms []*hw.Machine, epoch int,
	spawn func(machine, rank int, st *EpochStats, done *sim.Event)) (EpochStats, error) {
	eng := ms[0].Eng
	start := eng.Now()
	before := make([]hw.Counters, len(ms))
	var stats []*EpochStats
	var dones []*sim.Event
	for i, m := range ms {
		before[i] = m.Fabric.Counters
		for _, g := range m.GPUs {
			g.ResetBusy()
		}
	}
	for i, m := range ms {
		for rank := range m.GPUs {
			st := &EpochStats{SampleDist: metrics.New(), LoadDist: metrics.New(), TrainDist: metrics.New()}
			done := eng.NewEvent()
			stats, dones = append(stats, st), append(dones, done)
			spawn(i, rank, st, done)
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
	out := EpochStats{
		Epoch: epoch, EpochTime: end - start,
		SampleDist: metrics.New(), LoadDist: metrics.New(), TrainDist: metrics.New(),
	}
	for _, st := range stats {
		out.Loss += st.Loss
		out.Correct += st.Correct
		out.Seen += st.Seen
		out.SampleStage += st.SampleStage
		out.LoadStage += st.LoadStage
		out.TrainStage += st.TrainStage
		out.SampleDist.Merge(st.SampleDist)
		out.LoadDist.Merge(st.LoadDist)
		out.TrainDist.Merge(st.TrainDist)
	}
	for i, m := range ms {
		out.Utilization = append(out.Utilization, m.Utilization(start, end)...)
		after := &m.Fabric.Counters
		out.SampleWire += after.TotalWire(hw.TrafficSample) - before[i].TotalWire(hw.TrafficSample)
		out.FeatureWire += after.TotalWire(hw.TrafficFeature) - before[i].TotalWire(hw.TrafficFeature)
		out.GradWire += after.TotalWire(hw.TrafficGradient) - before[i].TotalWire(hw.TrafficGradient)
	}
	return out, nil
}

// withOverhead prefixes every stage with the host-side framework cost.
func withOverhead(s pipeline.Stages, overhead sim.Time) pipeline.Stages {
	if overhead <= 0 {
		return s
	}
	sample, load, train := s.Sample, s.Load, s.Train
	s.Sample = func(p *sim.Proc, step int) interface{} {
		p.Sleep(overhead)
		return sample(p, step)
	}
	s.Load = func(p *sim.Proc, step int, v interface{}) interface{} {
		p.Sleep(overhead)
		return load(p, step, v)
	}
	s.Train = func(p *sim.Proc, step int, v interface{}) {
		p.Sleep(overhead)
		train(p, step, v)
	}
	return s
}

// withStageTiming accumulates per-stage virtual durations into st: running
// totals plus per-step distributions (metrics.Histogram) for tail analysis.
func withStageTiming(s pipeline.Stages, st *EpochStats) pipeline.Stages {
	sample, load, train := s.Sample, s.Load, s.Train
	s.Sample = func(p *sim.Proc, step int) interface{} {
		t0 := p.Now()
		v := sample(p, step)
		st.SampleStage += p.Now() - t0
		st.SampleDist.Observe(float64(p.Now() - t0))
		return v
	}
	s.Load = func(p *sim.Proc, step int, v interface{}) interface{} {
		t0 := p.Now()
		out := load(p, step, v)
		st.LoadStage += p.Now() - t0
		st.LoadDist.Observe(float64(p.Now() - t0))
		return out
	}
	s.Train = func(p *sim.Proc, step int, v interface{}) {
		t0 := p.Now()
		train(p, step, v)
		st.TrainStage += p.Now() - t0
		st.TrainDist.Observe(float64(p.Now() - t0))
	}
	return s
}

// withTraceSpans records one span per worker stage per step and arms the
// pipeline's queue-wait stall tracing on the same lanes.
func withTraceSpans(s pipeline.Stages, tr *trace.Tracer, rank int) pipeline.Stages {
	s.Tracer = tr
	s.Pid = rank
	sample, load, train := s.Sample, s.Load, s.Train
	s.Sample = func(p *sim.Proc, step int) interface{} {
		t0 := p.Now()
		v := sample(p, step)
		tr.Complete(fmt.Sprintf("sample step %d", step), "stage", rank, trace.LaneSampler, float64(t0), float64(p.Now()), nil)
		return v
	}
	s.Load = func(p *sim.Proc, step int, v interface{}) interface{} {
		t0 := p.Now()
		out := load(p, step, v)
		tr.Complete(fmt.Sprintf("load step %d", step), "stage", rank, trace.LaneLoader, float64(t0), float64(p.Now()), nil)
		return out
	}
	s.Train = func(p *sim.Proc, step int, v interface{}) {
		t0 := p.Now()
		train(p, step, v)
		tr.Complete(fmt.Sprintf("train step %d", step), "stage", rank, trace.LaneTrainer, float64(t0), float64(p.Now()), nil)
	}
	return s
}

// Reducer sums a gradient vector in place across every replica of a run.
// *comm.Communicator is the single-machine reducer; a cluster installs a
// hierarchical one (core.MultiDSP) on each machine's Trainer.
type Reducer interface {
	AllReduceSum(p *sim.Proc, rank int, data []float32, o comm.Opts)
}

// Trainer is the data-parallel trainer worker shared by every strategy,
// every machine of a cluster and every baseline: forward/backward (real or
// nominal-cost), gradient allreduce, synchronous update. All systems execute
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
	Models []*nn.Model
	Optims []nn.Optimizer
	Grad   [][]float32
}

// NewTrainer builds per-rank model replicas (identical seeds) when
// RealCompute is set; in cost-only mode it allocates real-size gradient
// buffers so allreduce wire volume stays exact.
func NewTrainer(opts Options, c *comm.Communicator) *Trainer {
	t := &Trainer{Opts: opts, Comm: c, Reduce: c, World: c.N}
	n := opts.Data.NumGPUs()
	probe := nn.NewModel(opts.Model, opts.Seed)
	for g := 0; g < n; g++ {
		t.Grad = append(t.Grad, make([]float32, probe.ParamCount()))
		if opts.RealCompute {
			t.Models = append(t.Models, nn.NewModel(opts.Model, opts.Seed))
			t.Optims = append(t.Optims, nn.NewAdam(opts.LR))
		}
	}
	return t
}

// GradOpts is the gradient allreduce's default pricing: the configured
// gradient codec on the gradient traffic class.
func (o Options) GradOpts() comm.Opts { return comm.Compressed(o.GradCodec, hw.TrafficGradient) }

// Step runs one mini-batch training step on rank's GPU: the math (or, in
// cost-only mode, the aggregation kernel plus nominal(model, batch) flops),
// the gradient reduction under grad, the mean and the optimiser update.
func (t *Trainer) Step(p *sim.Proc, dev *hw.Device, rank int, mb *sample.MiniBatch, feats []float32, st *EpochStats,
	grad comm.Opts, nominal func(nn.Config, *sample.MiniBatch) int64) {
	if t.Opts.RealCompute {
		m := t.Models[rank]
		m.ZeroGrads()
		if len(mb.Seeds) > 0 {
			loss, correct, flops := m.TrainStep(mb, feats, SeedLabels(t.Opts.Data, mb))
			dev.RunKernel(p, hw.KernelCompute, flops)
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
		return
	}
	// Cost-only: charge nominal kernel work; gradients still move for real.
	if len(mb.Seeds) > 0 {
		dev.RunKernel(p, hw.KernelGather, nn.NominalAggBytes(t.Opts.Model, mb))
		dev.RunKernel(p, hw.KernelCompute, nominal(t.Opts.Model, mb))
	}
	// The cost-only path never writes Grad (it stays all-zero), so the
	// communicator may reuse its cached encode round over round.
	grad.Static = true
	t.Reduce.AllReduceSum(p, rank, t.Grad[rank], grad)
}
