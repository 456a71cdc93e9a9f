package pipeline

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Stages holds the per-GPU stage implementations for one training epoch.
// Each function is called with the mini-batch step index; the value returned
// by a sampler flows to a loader, and the loader's result flows to Train —
// the queues in between are what allow steps to overlap.
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
type Stages struct {
	NumBatches int
	// FirstBatch is the step the epoch starts at (non-zero when replaying the
	// tail of an epoch after restoring a mid-epoch checkpoint). Steps
	// [FirstBatch, NumBatches) run.
	FirstBatch int
	Samplers   []SampleFunc
	Loaders    []LoadFunc
	// Train consumes the loaded batch (the trainer worker). Steps arrive
	// strictly in order, preserving BSP semantics.
	Train func(p *sim.Proc, step int, loaded interface{})
	// Tracer, when set, records "queue-wait" stall spans (cat "stall") on
	// Pid's stage lanes whenever a worker blocks on a full or empty queue —
	// the per-mini-batch stall attribution internal/prof consumes.
	Tracer *trace.Tracer
	Pid    int
}

// SampleFunc constructs the graph samples for a step (a sampler worker).
type SampleFunc func(p *sim.Proc, step int) interface{}

// LoadFunc fetches features for a step's samples (a loader worker).
type LoadFunc func(p *sim.Proc, step int, sampled interface{}) interface{}

// item tags a payload with its step; a tag that is not the step the taker is
// at is a BSP violation.
type item struct {
	step int
	v    interface{}
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

// stall records the time a worker spent parked on a queue operation as a
// zero-work span on the worker's own stage lane. A worker's queue waits
// happen strictly between its stage executions, so its stall spans never
// overlap its stage spans (another instance's, on the shared lane, may).
func (s Stages) stall(tid int, kind string, step int, start, end sim.Time) {
	if !s.Tracer.Enabled() || end <= start {
		return
	}
	s.Tracer.Complete("queue-wait", "stall", s.Pid, tid,
		float64(start), float64(end),
		map[string]string{"op": kind, "step": fmt.Sprint(step)})
}

// put hands step's payload to q's consumer, recording the wait on lane.
func (s Stages) put(p *sim.Proc, q *sim.QueueOf[item], lane, step int, v interface{}) {
	t0 := p.Now()
	q.Put(p, item{step, v})
	s.stall(lane, "put", step, t0, p.Now())
}

// get takes step's payload from q's producer, recording the wait on lane.
func (s Stages) get(p *sim.Proc, q *sim.QueueOf[item], lane, step int) interface{} {
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
func (s Stages) first(i, k int) int {
	return s.FirstBatch + ((i-s.FirstBatch)%k+k)%k
}

// RunPipelined spawns one GPU's workers joined by bounded queues of the given
// capacity (the paper finds capacity 2 sufficient). Every queue has exactly
// one producer and one consumer (see the package comment): step s travels
// from sampler s mod S to loader s mod L through the queue of its residue
// modulo lcm(S, L), and on to the trainer through loader s mod L's queue.
// Each worker walks its own step sequence, so nothing is reordered, closed or
// counted down. done is triggered when the trainer finishes the epoch.
func RunPipelined(eng *sim.Engine, name string, s Stages, queueCap int, done *sim.Event) {
	nS, nL := len(s.Samplers), len(s.Loaders)
	if nS == 0 || nL == 0 {
		panic("pipeline: Stages needs at least one sampler and loader")
	}
	qs := make([]*sim.QueueOf[item], Queues(nS, nL))
	for k := range qs {
		qs[k] = sim.NewQueueOf[item](eng, queueCap)
	}
	trainQ := qs[len(qs)-nL:]
	loadQ := qs[:len(qs)-nL]
	for i, sample := range s.Samplers {
		eng.Go(fmt.Sprintf("%s/sampler%d", name, i), func(p *sim.Proc) {
			for step := s.first(i, nS); step < s.NumBatches; step += nS {
				s.put(p, loadQ[step%len(loadQ)], trace.LaneSampler, step, sample(p, step))
			}
		})
	}
	for j, load := range s.Loaders {
		eng.Go(fmt.Sprintf("%s/loader%d", name, j), func(p *sim.Proc) {
			for step := s.first(j, nL); step < s.NumBatches; step += nL {
				v := s.get(p, loadQ[step%len(loadQ)], trace.LaneLoader, step)
				s.put(p, trainQ[j], trace.LaneLoader, step, load(p, step, v))
			}
		})
	}
	eng.Go(name+"/trainer", func(p *sim.Proc) {
		for step := s.FirstBatch; step < s.NumBatches; step++ {
			s.Train(p, step, s.get(p, trainQ[step%nL], trace.LaneTrainer, step))
		}
		done.Trigger()
	})
}

// RunSequential executes the stages of each step back to back in a single
// worker — the DSP-Seq configuration the pipeline is compared against. A
// step runs on the sampler and loader instances that own it.
func RunSequential(eng *sim.Engine, name string, s Stages, done *sim.Event) {
	eng.Go(name+"/seq", func(p *sim.Proc) {
		for step := s.FirstBatch; step < s.NumBatches; step++ {
			v := s.Samplers[step%len(s.Samplers)](p, step)
			v = s.Loaders[step%len(s.Loaders)](p, step, v)
			s.Train(p, step, v)
		}
		done.Trigger()
	})
}
