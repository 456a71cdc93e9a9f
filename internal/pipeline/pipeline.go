package pipeline

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stages holds the per-GPU stage implementations for one training epoch.
// Each function is called with the mini-batch step index; the S a sampler
// returns flows to a loader, and the loader's L flows to Train — the queues
// in between are what allow steps to overlap.
//
// Samplers and Loaders hold one function per worker instance (each typically
// closes over its own communicator). One of each is DSP; more is the
// multi-instance design the paper weighs and rejects in Section 5 ("it
// consumes more memory for in-flight works... with more workers on each GPU,
// the resource contention for both CPU and GPU is more severe"). Instance i
// of k owns the steps ≡ i (mod k) — by index, never by queue availability:
// instance i is a peer group across GPUs with its own communicator, so all
// GPUs must route the same steps to it or its collectives would misalign.
// The trainer stays single (several would violate BSP).
//
// The runners are the one place a stage runs: each stage pays Overhead,
// runs, lands in its distribution and, traced, becomes a span (see run).
type Stages[S, L any] struct {
	NumBatches int
	// FirstBatch is the step the epoch starts at (non-zero when replaying the
	// tail of an epoch after restoring a mid-epoch checkpoint). Steps
	// [FirstBatch, NumBatches) run.
	FirstBatch int
	Samplers   []func(p *sim.Proc, step int) S
	Loaders    []func(p *sim.Proc, step int, sampled S) L
	// Train consumes the loaded batch (the trainer worker). Steps arrive
	// strictly in order, preserving BSP semantics.
	Train func(p *sim.Proc, step int, loaded L)
	// Overhead is the host-side framework cost every stage pays before it
	// runs; in pipelined mode the workers pay it concurrently, which is part
	// of what the pipeline hides.
	Overhead sim.Time
	// SampleDist, LoadDist and TrainDist, when set, receive every stage's
	// virtual duration, its overhead included.
	SampleDist, LoadDist, TrainDist *metrics.Histogram
	// Tracer, when set, records every stage as a "<stage> step N" span (cat
	// "stage") and every wait on a full or empty queue as a "queue-wait"
	// stall span (cat "stall") on Pid's stage lanes — the per-mini-batch
	// attribution internal/prof consumes.
	Tracer *trace.Tracer
	Pid    int
}

// item tags a payload with its step; a tag that is not the step the taker is
// at is a BSP violation.
type item[T any] struct {
	step int
	v    T
}

// Queues is the number of bounded queues in one GPU's pipeline: one per
// (sampler, loader) pair that ever shares a step — step s is sampled by
// instance s mod S and loaded by instance s mod L, so the pairs are the
// residues of s modulo lcm(S, L) — and one from each loader to the trainer.
// Times the queue capacity it is the mini-batches the pipeline holds between
// stages: RunPipelined builds that many queues, strategy.Build reserves
// device memory for that many slots.
func Queues(samplers, loaders int) int {
	gcd := samplers
	for r := loaders; r != 0; {
		gcd, r = r, gcd%r
	}
	return samplers/gcd*loaders + loaders
}

// scale grows the per-stage overhead with the worker count: more instances
// contend for the same host cores (the paper's second reason against them:
// "the resource contention for both CPU and GPU is more severe"). Only past
// the plain pipeline's three workers: x*3/3 is not x in float64, and
// single-instance byte identity hangs on it.
func (s *Stages[S, L]) scale() {
	if workers := len(s.Samplers) + len(s.Loaders) + 1; workers > 3 {
		s.Overhead = s.Overhead * sim.Time(workers) / 3
	}
}

// run executes one stage of step on lane: it pays the overhead, runs body,
// records the stage's duration in dist and emits its span.
func (s *Stages[S, L]) run(p *sim.Proc, name string, lane, step int, dist *metrics.Histogram, body func()) {
	t0 := p.Now()
	if s.Overhead > 0 {
		p.Sleep(s.Overhead)
	}
	body()
	if dist != nil {
		dist.Observe(float64(p.Now() - t0))
	}
	if s.Tracer.Enabled() {
		s.Tracer.Complete(fmt.Sprintf("%s step %d", name, step), "stage", s.Pid, lane, float64(t0), float64(p.Now()), nil)
	}
}

// stall records the time a worker spent parked on a queue operation as a
// zero-work span on the worker's own stage lane. A worker's queue waits
// happen strictly between its stage executions, so its stall spans never
// overlap its stage spans (another instance's, on the shared lane, may).
func (s *Stages[S, L]) stall(tid int, kind string, step int, start, end sim.Time) {
	if !s.Tracer.Enabled() || end <= start {
		return
	}
	s.Tracer.Complete("queue-wait", "stall", s.Pid, tid,
		float64(start), float64(end),
		map[string]string{"op": kind, "step": fmt.Sprint(step)})
}

// put hands step's payload to q's consumer, recording the wait on lane.
func put[S, L, T any](s *Stages[S, L], p *sim.Proc, q *sim.QueueOf[item[T]], lane, step int, v T) {
	t0 := p.Now()
	q.Put(p, item[T]{step, v})
	s.stall(lane, "put", step, t0, p.Now())
}

// get takes step's payload from q's producer, recording the wait on lane.
func get[S, L, T any](s *Stages[S, L], p *sim.Proc, q *sim.QueueOf[item[T]], lane, step int) T {
	t0 := p.Now()
	it, _ := q.Get(p)
	s.stall(lane, "get", step, t0, p.Now())
	if it.step != step {
		panic(fmt.Sprintf("pipeline: got step %d, want %d (BSP violation)", it.step, step))
	}
	return it.v
}

// first is the first step of [FirstBatch, NumBatches) that instance i of k
// owns; it then owns every k-th.
func (s *Stages[S, L]) first(i, k int) int {
	return s.FirstBatch + ((i-s.FirstBatch)%k+k)%k
}

// RunPipelined spawns one GPU's workers joined by bounded queues of the given
// capacity (the paper finds capacity 2 sufficient). Every queue has exactly
// one producer and one consumer (see the package comment): step s travels
// from sampler s mod S to loader s mod L through the queue of its residue
// modulo lcm(S, L), and on to the trainer through loader s mod L's queue.
// Each worker walks its own step sequence, so nothing is reordered, closed or
// counted down. done is triggered when the trainer finishes the epoch.
func RunPipelined[S, L any](eng *sim.Engine, name string, s Stages[S, L], queueCap int, done *sim.Event) {
	nS, nL := len(s.Samplers), len(s.Loaders)
	if nS == 0 || nL == 0 {
		panic("pipeline: Stages needs at least one sampler and loader")
	}
	s.scale()
	loadQ := make([]*sim.QueueOf[item[S]], Queues(nS, nL)-nL)
	for k := range loadQ {
		loadQ[k] = sim.NewQueueOf[item[S]](eng, queueCap)
	}
	trainQ := make([]*sim.QueueOf[item[L]], nL)
	for k := range trainQ {
		trainQ[k] = sim.NewQueueOf[item[L]](eng, queueCap)
	}
	for i, sample := range s.Samplers {
		eng.Go(fmt.Sprintf("%s/sampler%d", name, i), func(p *sim.Proc) {
			for step := s.first(i, nS); step < s.NumBatches; step += nS {
				var v S
				s.run(p, "sample", trace.LaneSampler, step, s.SampleDist, func() { v = sample(p, step) })
				put(&s, p, loadQ[step%len(loadQ)], trace.LaneSampler, step, v)
			}
		})
	}
	for j, load := range s.Loaders {
		eng.Go(fmt.Sprintf("%s/loader%d", name, j), func(p *sim.Proc) {
			for step := s.first(j, nL); step < s.NumBatches; step += nL {
				v := get(&s, p, loadQ[step%len(loadQ)], trace.LaneLoader, step)
				var l L
				s.run(p, "load", trace.LaneLoader, step, s.LoadDist, func() { l = load(p, step, v) })
				put(&s, p, trainQ[j], trace.LaneLoader, step, l)
			}
		})
	}
	eng.Go(name+"/trainer", func(p *sim.Proc) {
		for step := s.FirstBatch; step < s.NumBatches; step++ {
			l := get(&s, p, trainQ[step%nL], trace.LaneTrainer, step)
			s.run(p, "train", trace.LaneTrainer, step, s.TrainDist, func() { s.Train(p, step, l) })
		}
		done.Trigger()
	})
}

// RunSequential executes the stages of each step back to back in a single
// worker — the DSP-Seq configuration the pipeline is compared against. A
// step runs on the sampler and loader instances that own it.
func RunSequential[S, L any](eng *sim.Engine, name string, s Stages[S, L], done *sim.Event) {
	s.scale()
	eng.Go(name+"/seq", func(p *sim.Proc) {
		for step := s.FirstBatch; step < s.NumBatches; step++ {
			var v S
			var l L
			s.run(p, "sample", trace.LaneSampler, step, s.SampleDist, func() { v = s.Samplers[step%len(s.Samplers)](p, step) })
			s.run(p, "load", trace.LaneLoader, step, s.LoadDist, func() { l = s.Loaders[step%len(s.Loaders)](p, step, v) })
			s.run(p, "train", trace.LaneTrainer, step, s.TrainDist, func() { s.Train(p, step, l) })
		}
		done.Trigger()
	})
}
