// Package pipeline implements DSP's training pipeline: producer-consumer
// queues that let the sampler, loader and trainer of DIFFERENT mini-batches
// run concurrently on each GPU, and the Centralized Communication
// Coordination (CCC) scheme that makes concurrent collectives deadlock-free.
//
// The deadlock hazard (paper Figure 8): communication kernels hold GPU
// resources irrevocably and an all-to-all can only proceed once its peer
// kernels have launched on every GPU. If GPU 1 launches the sampler's
// collective first while GPU 2 launches the loader's first, each holds the
// resource the other's peer needs — a cycle. CCC designates GPU 0 the
// leader: collectives launch everywhere in the order the leader's own
// workers submitted them, which eliminates cycles by construction.
//
// That argument is an induction over the leader's grant log, and the queues
// must not break it. For the k-th granted collective to launch on a follower,
// the follower's worker has to reach it, so every operation that enabled the
// leader's worker to reach it — a peer taking a batch out of a full queue, or
// putting one into an empty queue — must be enabled on the follower too, by
// collectives EARLIER in the log (which the induction says complete). The
// invariant that guarantees it: every queue has exactly one producer and one
// consumer, each walking a fixed step sequence (RunPipelined). Whether a Put
// or Get blocks is then a function of step counters alone, identical on every
// GPU. A queue shared by several instances breaks this: who gets the free
// slot is a race on that GPU, so the leader's loader 0 can run one step
// further than a follower's, CCC imposes that order on everyone, and the
// follower's loader waits on a queue its trainer can only drain after a
// collective that is behind the loader's in the log — Figure 8 again, one
// level up.
package pipeline

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Coordinator arbitrates communication-kernel launches across GPUs.
type Coordinator struct {
	eng *sim.Engine
	n   int
	// UseCCC selects leader-ordered launches; without it, launches acquire
	// resources in arrival order and can deadlock.
	UseCCC bool

	// Tracer, when set, resolves the tracer current at launch time (the CLIs
	// attach tracers after the system is built) so Enter can record
	// "ccc-wait" stall spans — the time a communication kernel waited for
	// its leader-ordered turn plus the kernel-slot acquisition.
	Tracer func() *trace.Tracer

	// slot[g] models the irrevocable SM allocation of the in-flight
	// communication kernel on GPU g.
	slot []*sim.Resource

	// Leader state: the global grant order (worker ids in leader submission
	// order) and each GPU's progress through it. Only the suffix some live
	// GPU has not yet passed is kept (see trim).
	granted   []int
	nextGrant []int
	cond      []*sim.Cond // per-GPU "state advanced" condition

	// view, when set, enables leader failover: the leader is the lowest
	// LIVE GPU, and a death resets the grant log (every in-flight collective
	// aborts and re-submits under the new membership generation).
	view *fault.View
}

// NewCoordinator creates a coordinator for n GPUs. slotCap is the number of
// communication kernels that can hold GPU resources simultaneously on one
// GPU (capacity 1 makes the Figure 8 hazard deterministic in tests; DSP runs
// with capacity 2 so sampler and loader collectives overlap).
func NewCoordinator(eng *sim.Engine, n int, useCCC bool, slotCap int) *Coordinator {
	if slotCap < 1 {
		slotCap = 1
	}
	c := &Coordinator{eng: eng, n: n, UseCCC: useCCC}
	for g := 0; g < n; g++ {
		c.slot = append(c.slot, eng.NewResource(slotCap))
		c.cond = append(c.cond, eng.NewCond())
	}
	c.nextGrant = make([]int, n)
	return c
}

// SetView enables CCC leader failover driven by a fleet-membership view.
// When any GPU dies the grant log resets: collectives in flight abort (via
// the communicator's own view handling), retry, and re-submit to the new
// leader — the lowest live GPU — so the global launch order stays total.
func (c *Coordinator) SetView(v *fault.View) {
	c.view = v
	v.OnChange(func() {
		c.granted = c.granted[:0]
		for g := range c.nextGrant {
			c.nextGrant[g] = 0
		}
		c.notifyAll()
	})
}

// Leader returns the grant-issuing GPU: 0, or the lowest live GPU under a
// membership view.
func (c *Coordinator) Leader() int {
	if c.view != nil {
		return c.view.LowestLive()
	}
	return 0
}

// notify wakes every process waiting on GPU g's condition.
func (c *Coordinator) notify(g int) { c.cond[g].Broadcast() }

// notifyAll broadcasts a state change to all GPUs (leader grants are global).
func (c *Coordinator) notifyAll() {
	for g := 0; g < c.n; g++ {
		c.notify(g)
	}
}

// Enter is the launch protocol of worker workerID's communication kernel on
// GPU gpu: under CCC it waits for the kernel's turn in the leader-decided
// global order, then claims the GPU's (irrevocable) kernel resources.
func (c *Coordinator) Enter(p *sim.Proc, gpu, workerID int) {
	t0 := c.eng.Now()
	if c.UseCCC {
		gen := -1
		if c.view != nil {
			gen = c.view.Gen()
		}
		// Leader: submitting IS granting.
		if gpu == c.Leader() {
			c.granted = append(c.granted, workerID)
			c.notifyAll()
		}
		// Wait for this worker's turn in the global order.
		for {
			if c.nextGrant[gpu] < len(c.granted) && c.granted[c.nextGrant[gpu]] == workerID {
				c.nextGrant[gpu]++
				c.trim()
				c.notify(gpu) // others on this GPU may now be up
				break
			}
			c.cond[gpu].Wait(p)
			if c.view != nil && c.view.Gen() != gen {
				// A GPU died and the grant log was reset mid-wait: this
				// launch belongs to an aborted collective. Unwind; the
				// caller retries and re-submits under the new leader.
				panic(fault.Aborted{Gen: gen})
			}
		}
	}
	c.slot[gpu].Acquire(p, 1)
	if c.Tracer != nil {
		if tr := c.Tracer(); tr.Enabled() && c.eng.Now() > t0 {
			tr.Complete("ccc-wait", "stall", gpu, trace.LaneCCC,
				float64(t0), float64(c.eng.Now()),
				map[string]string{"worker": fmt.Sprint(workerID)})
		}
	}
}

// trim drops the prefix of the grant log that every live GPU has passed and
// rebases their positions, so the log holds only grants still to be taken
// somewhere and does not grow with the length of the run. A dead GPU takes no
// more grants (a death resets the log), so it holds nothing back.
func (c *Coordinator) trim() {
	done := len(c.granted)
	for g, k := range c.nextGrant {
		if c.view == nil || c.view.Alive(g) {
			done = min(done, k)
		}
	}
	if done == 0 {
		return
	}
	c.granted = c.granted[:copy(c.granted, c.granted[done:])]
	for g := range c.nextGrant {
		c.nextGrant[g] = max(c.nextGrant[g]-done, 0)
	}
}

// Exit releases the kernel resources claimed by Enter.
func (c *Coordinator) Exit(gpu int) {
	c.slot[gpu].Release(1)
}

// WorkerGate is a comm.Gate view of the coordinator bound to one worker id:
// install one per worker-group communicator with SetGate.
type WorkerGate struct {
	C        *Coordinator
	WorkerID int
}

// Enter implements the gate protocol for this worker.
func (g WorkerGate) Enter(p *sim.Proc, gpu int) { g.C.Enter(p, gpu, g.WorkerID) }

// Exit releases the kernel resources.
func (g WorkerGate) Exit(gpu int) { g.C.Exit(gpu) }

// Gate returns the gate for one worker id.
func (c *Coordinator) Gate(workerID int) WorkerGate {
	return WorkerGate{C: c, WorkerID: workerID}
}

// String describes the coordinator mode.
func (c *Coordinator) String() string {
	if c.UseCCC {
		return fmt.Sprintf("CCC(leader=%d, n=%d)", c.Leader(), c.n)
	}
	return fmt.Sprintf("uncoordinated(n=%d)", c.n)
}
