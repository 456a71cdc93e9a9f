package sim

import (
	"sync"
	"sync/atomic"
)

// This file adds real-thread parallelism for *data* work — sampling draws,
// feature gathers, codec encode/decode, GNN math — without perturbing the
// DES. The engine's scheduling stays strictly single-threaded and
// deterministic; what runs on extra OS threads is pure computation whose
// results are merged back into virtual time at well-defined commit points.
//
// The rules that keep this deterministic and virtual-time-exact:
//
//   - A submitted unit must be self-contained: it may not call any engine,
//     Proc, trace or stats API, draw from a shared RNG stream, or mutate
//     state another unit (or the engine thread) reads before its Join.
//     Seeded per-item RNG (rng.New / rng.Mix keyed by node or element ids)
//     is fine — draws are a pure function of the key, not of timing.
//   - Results are written into slots owned by the submitting rank and are
//     merged — along with trace events and counters derived from them — by
//     sim processes in DES order after Join. The merge order is therefore a
//     function of virtual time alone, never of OS scheduling.
//   - Join blocks the engine's OS thread in *real* time only; no virtual
//     time passes and no virtual-time barrier is introduced, so processes
//     that reach their work at different virtual instants stay uncoupled.
//
// Speedup comes from overlap: a process submits its unit, then spends
// virtual time in kernel/transfer sleeps; while the engine thread runs
// *other* processes (which submit their own units), the pool chews through
// everyone's data work concurrently. At parallelism 1 (the default) units
// run inline at Join on the engine thread, byte-identical to the parallel
// schedule by construction.

// SetParallelism sets the number of OS threads ParallelGroup may use for
// offloaded data work, including the engine thread itself. n <= 1 (the
// default) disables offloading: units run inline at Join. Call before or
// between Runs; existing groups pick the new value up on their next Submit.
func (e *Engine) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	e.par = n
	if n > 1 && (e.parSem == nil || cap(e.parSem) != n-1) {
		e.parSem = make(chan struct{}, n-1)
	}
}

// ParallelGroup executes independent units of real data work on OS worker
// threads between DES commit points (see the file comment for the rules).
// Groups are cheap handles over the engine's shared worker budget; one per
// subsystem (sampler world, communicator, trainer) is typical.
type ParallelGroup struct {
	eng *Engine
}

// NewParallelGroup returns a group drawing on the engine's parallelism.
func (e *Engine) NewParallelGroup() *ParallelGroup { return &ParallelGroup{eng: e} }

// Ticket is a handle for one submitted unit, held by value: Submit allocates
// none. The zero Ticket joins immediately.
type Ticket struct {
	fn   func() // inline mode: deferred to Join
	done chan struct{}
}

// Submit schedules fn. At parallelism > 1 it starts on a worker thread
// immediately (bounded by the engine's thread budget) and runs concurrently
// with the simulation; at parallelism 1 it is deferred and runs inline at
// Join. Either way fn's effects may only be observed after Join returns.
func (g *ParallelGroup) Submit(fn func()) Ticket {
	e := g.eng
	if e.par <= 1 {
		return Ticket{fn: fn}
	}
	done := make(chan struct{})
	sem := e.parSem
	go func() {
		defer close(done)
		sem <- struct{}{}
		defer func() { <-sem }()
		fn()
	}()
	return Ticket{done: done}
}

// Join waits (real time, zero virtual time) until the unit has run. It is
// safe to call from any sim process — not only the submitter — and again on
// the same ticket, which then returns at once; a copy of a ticket is not the
// same ticket. The commit point it marks is where the unit's results become
// visible for deterministic merge.
func (t *Ticket) Join() {
	if t.fn != nil {
		fn := t.fn
		t.fn = nil
		fn()
		return
	}
	if t.done != nil {
		<-t.done
	}
}

// Run executes fns as one scatter/gather: all units run (the calling thread
// participates, extra workers join up to the engine's budget) and Run
// returns when every unit is done. Use it for splitting one rank's large
// data task — e.g. segment-parallel reduction — at a single commit point.
func (g *ParallelGroup) Run(fns []func()) {
	e := g.eng
	if e.par <= 1 || len(fns) <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(fns) {
				return
			}
			fns[i]()
		}
	}
	workers := e.par - 1
	if workers > len(fns)-1 {
		workers = len(fns) - 1
	}
	var wg sync.WaitGroup
	sem := e.parSem
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				work()
			default:
				// Budget exhausted by other in-flight units; the calling
				// thread still drains everything.
			}
		}()
	}
	work()
	wg.Wait()
}
