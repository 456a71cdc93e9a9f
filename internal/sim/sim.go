//go:build go1.23

// The line above is not a switch: iter.Pull needs Go 1.23, and go.mod's
// directive has to stay at 1.22 for the benchmark module that builds this
// package, so this file states its own language version.

// Package sim implements a deterministic discrete-event simulation (DES)
// kernel. It is the substrate on which the simulated GPUs, interconnects and
// training workers of this repository execute.
//
// Model: a simulation is a set of processes (Proc) orchestrated by an Engine.
// Each process body is an iter.Pull coroutine: the engine resumes it with
// next(), the process hands control back with yield() when it parks, and the
// Go runtime switches between the two directly, without a scheduler round
// trip. Exactly one process executes at any instant, and the order in which
// processes are resumed is a pure function of (virtual time, scheduling
// sequence number). Runs are therefore bit-for-bit reproducible regardless of
// GOMAXPROCS.
//
// Processes advance virtual time with Sleep, synchronise with Event (one
// shot), Cond (a reusable broadcast), Barrier and Resource, and exchange data
// through bounded Queues. A park allocates nothing: what a process waits for
// is a (kind, deadline) value on the Proc that is only put into words when a
// deadlock is reported. When no process is
// runnable and no timer is pending but live processes remain parked, Run
// reports a deadlock together with the parked process names — this is used to
// demonstrate the communication-deadlock hazard the paper's CCC scheme
// resolves.
//
// The only thing a process may block on in REAL time is Ticket.Join (see
// parallel.go); the engine waits with it. A panic in a process body unwinds
// the other processes and is re-raised by Run on its caller's goroutine with
// the process name in front.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
	"strings"
)

// Time is virtual time in seconds.
type Time float64

// aborted is the sentinel panic value used to unwind parked processes when
// the engine shuts down early (deadlock or Interrupt).
type abortSignal struct{}

// Engine is a discrete-event simulation scheduler. Create one with NewEngine,
// spawn processes with Go, then call Run.
type Engine struct {
	now    Time
	seq    uint64 // monotonically increasing scheduling tiebreaker
	timers timerQueue
	ready  ring[*Proc]   // FIFO run queue at the current instant
	procs  []*Proc       // in spawn order (deterministic teardown); finished ones are swept on spawn
	live   int           // processes started and not yet finished
	liveND int           // live non-daemon processes
	intr   error         // pending interrupt; Run tears down and returns it
	par    int           // data-work OS-thread budget (see parallel.go)
	parSem chan struct{} // worker-slot semaphore shared by all groups
}

// NewEngine returns an empty simulation.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// ring is a growable circular FIFO (power-of-two capacity): popping advances
// a head index, so a steady push/pop stream reuses one backing array.
type ring[T any] struct {
	buf     []T
	head, n int
}

func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(4, 2*len(r.buf)))
		for i := range r.n {
			buf[i] = r.at(i)
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// parkKind says what a parked process waits for; with Proc.until it is the
// whole deadlock-report reason, kept as a value so parking formats nothing.
type parkKind uint8

const (
	notParked parkKind = iota
	parkSleep
	parkEvent
	parkEventTimeout
	parkBarrier
	parkResource
	parkQueueFull
	parkQueueEmpty
)

// Proc is a simulation process. All Proc methods must be called from within
// the process's own function body (engine context).
type Proc struct {
	eng    *Engine
	name   string
	next   func() (struct{}, bool) // engine side: run until the next park or the end
	yield  func(struct{}) bool     // process side: switch back to the engine
	abort  bool
	daemon bool
	done   bool
	gen    uint64   // incremented on every resume; used to discard stale wakeups
	why    parkKind // notParked unless inside park
	until  Time     // deadline of a parkSleep / parkEventTimeout
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// reason words what p is parked on for the deadlock report.
func (p *Proc) reason() string {
	switch p.why {
	case parkSleep:
		return fmt.Sprintf("sleep until %g", float64(p.until))
	case parkEventTimeout:
		return fmt.Sprintf("event or timeout at %g", float64(p.until))
	}
	return [...]string{parkEvent: "event", parkBarrier: "barrier", parkResource: "resource",
		parkQueueFull: "queue full", parkQueueEmpty: "queue empty"}[p.why]
}

// Go spawns a new process. It may be called before Run or from inside a
// running process; the new process becomes runnable at the current virtual
// time, after all currently runnable processes.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon spawns a background process that does not keep Run alive: when
// only daemon timers remain and every non-daemon process has finished, Run
// returns and leaves the daemons parked for a later Run call. Fault
// injectors use this so a pending fault scheduled past the end of an epoch
// does not inflate the epoch's virtual time.
func (e *Engine) GoDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{eng: e, name: name, daemon: daemon}
	e.live++
	if !daemon {
		e.liveND++
	}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		if !p.abort { // else killed before it ever ran
			fn(p)
		}
	})
	if len(e.procs) >= 2*e.live+8 {
		e.procs = slices.DeleteFunc(e.procs, func(q *Proc) bool { return q.done })
	}
	e.procs = append(e.procs, p)
	e.ready.push(p)
	return p
}

// exit runs deferred as the process body ends, normally or unwinding. The
// abort signal stops here; any other panic travels on through next() into
// Run, which re-raises it, so it gets the process name and its stack now.
func (p *Proc) exit() {
	p.done = true
	p.eng.live--
	if !p.daemon {
		p.eng.liveND--
	}
	if r := recover(); r != nil {
		if _, ok := r.(abortSignal); !ok {
			panic(fmt.Sprintf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
		}
	}
}

// park relinquishes control to the engine; it returns when the engine
// resumes this process. why and until describe what the process is waiting
// for (used in deadlock reports).
func (p *Proc) park(why parkKind, until Time) {
	if p.abort {
		// Killed while running: unwind at the next scheduling point.
		panic(abortSignal{})
	}
	p.why, p.until = why, until
	p.yield(struct{}{})
	p.gen++
	p.why = notParked
	if p.abort {
		panic(abortSignal{})
	}
}

// makeReady places p on the run queue for the current instant. Wakeups
// delivered to finished processes (e.g. a resource released by an unwinding
// process admitting a waiter that was itself already aborted) are dropped.
func (e *Engine) makeReady(p *Proc) {
	if p.done {
		return
	}
	e.ready.push(p)
}

// Sleep advances the process by d virtual seconds. Negative d sleeps 0.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.seq++
	e.timers.Push(timer{at: e.now + d, seq: e.seq, p: p, gen: p.gen})
	p.park(parkSleep, e.now+d)
}

// DeadlockError reports that the simulation stalled with live processes.
type DeadlockError struct {
	At     Time
	Parked []string // "name: reason" for each stuck process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%g with %d parked processes: %s",
		float64(d.At), len(d.Parked), strings.Join(d.Parked, "; "))
}

// Run executes the simulation until no non-daemon work remains. It returns
// the final virtual time. If non-daemon processes remain parked with no
// pending timers, Run aborts everything and returns a *DeadlockError. If a
// process called Interrupt, Run tears the simulation down deterministically
// and returns the interrupt error. Parked daemon processes survive a clean
// return and resume on the next Run call.
func (e *Engine) Run() (Time, error) {
	defer func() {
		if r := recover(); r != nil { // a process body panicked (see Proc.exit)
			e.teardown()
			panic(r)
		}
	}()
	for {
		for e.ready.n > 0 {
			if p := e.ready.pop(); !p.done {
				p.next()
			}
		}
		if e.intr != nil {
			err := e.intr
			e.intr = nil
			e.teardown()
			return e.now, err
		}
		if e.timers.Len() == 0 {
			break
		}
		t := e.timers.Pop()
		if t.gen != t.p.gen {
			// The process was resumed by another source (e.g. the event half
			// of WaitTimeout) after this timer was registered. Discard the
			// stale timer without advancing virtual time.
			continue
		}
		if t.p.daemon && e.liveND == 0 {
			// Only daemon work remains: stop here without advancing to the
			// daemon's wakeup time. The timer stays registered so the next
			// Run call (same engine, more work spawned) resumes it.
			e.timers.Push(t)
			break
		}
		if t.at > e.now {
			e.now = t.at
		}
		e.makeReady(t.p)
	}
	if e.liveND > 0 {
		derr := &DeadlockError{At: e.now}
		for _, p := range e.procs {
			if p.parked() {
				derr.Parked = append(derr.Parked, p.name+": "+p.reason())
			}
		}
		e.teardown()
		return e.now, derr
	}
	return e.now, nil
}

// Interrupt asks the engine to abort the simulation: once the current
// instant's run queue drains, Run unwinds every live process (daemons
// included), discards all timers and returns err. It models a fatal,
// machine-wide fault (e.g. a GPU crash detected by the training driver) and
// must be called from within a running process. The engine itself remains
// usable: virtual time is preserved and new processes may be spawned for a
// subsequent Run.
func (e *Engine) Interrupt(err error) {
	if err == nil {
		panic("sim: Interrupt requires a non-nil error")
	}
	if e.intr == nil {
		e.intr = err
	}
}

// Kill aborts a single process: parked, queued or not-yet-started processes
// unwind at the current instant; a process that is currently running (for
// example the caller itself) unwinds at its next scheduling point. Killing a
// finished process is a no-op. Pending timers and event registrations of the
// victim are discarded via its generation counter.
func (e *Engine) Kill(p *Proc) {
	if p.done {
		return
	}
	p.abort = true
	for i := range e.ready.n {
		if e.ready.at(i) == p {
			return // already queued; aborts when resumed
		}
	}
	if p.parked() {
		e.makeReady(p)
	}
	// Otherwise p is running right now; park's entry check unwinds it.
}

// parked reports whether p is live and inside park (woken or not).
func (p *Proc) parked() bool { return !p.done && p.why != notParked }

// teardown unwinds every live process in deterministic order (ready queue
// first, then parked processes in spawn order) and clears all timers.
// Unwinding one process may ready others (deferred releases admit waiters);
// those run next, so FIFO admissions stay consistent during shutdown.
func (e *Engine) teardown() {
	e.timers.clear()
	for e.live > 0 {
		var p *Proc
		if e.ready.n > 0 {
			if p = e.ready.pop(); p.done {
				continue
			}
		} else if i := slices.IndexFunc(e.procs, (*Proc).parked); i >= 0 {
			p = e.procs[i]
		} else {
			break
		}
		p.abort = true
		p.next()
	}
	e.ready = ring[*Proc]{}
	clear(e.procs)
	e.procs = e.procs[:0]
}

type timer struct {
	at  Time
	seq uint64
	p   *Proc
	gen uint64 // p.gen at registration; stale if p resumed since
}

// Event is a one-shot synchronisation point. Processes Wait on it; a Trigger
// wakes all waiters at the current instant. Waiting on an already-triggered
// event returns immediately.
type Event struct {
	eng     *Engine
	fired   bool
	waiters []eventWaiter
}

type eventWaiter struct {
	p   *Proc
	gen uint64 // p.gen at registration; stale if p resumed since
}

// NewEvent creates an untriggered event.
func (e *Engine) NewEvent() *Event { return &Event{eng: e} }

// Fired reports whether the event has been triggered.
func (ev *Event) Fired() bool { return ev.fired }

// Trigger fires the event, waking all waiters. Triggering twice is a no-op.
func (ev *Event) Trigger() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.eng.wakeWaiters(ev.waiters)
	ev.waiters = nil
}

// wakeWaiters readies, in registration order, every waiter still parked on
// the registration: one whose process has resumed since (its timeout won, or
// it was killed) is skipped.
func (e *Engine) wakeWaiters(ws []eventWaiter) {
	for _, w := range ws {
		if w.gen == w.p.gen {
			e.makeReady(w.p)
		}
	}
}

// Wait parks p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, eventWaiter{p, p.gen})
	p.park(parkEvent, 0)
}

// WaitTimeout parks p until the event fires or d virtual seconds elapse,
// whichever comes first, and reports whether the event has fired. The losing
// wakeup source (the pending timer, or the waiter registration) is discarded
// via the process generation counter, so neither a spurious resume nor an
// inflated end-of-run time can result. Negative d waits 0.
//
// Edge cases are pinned deterministically:
//   - d == 0 parks the process and wakes it at the same instant via its
//     timer, after every currently runnable process has run. A Trigger from
//     any of those processes therefore wins over a zero timeout.
//   - A wake-vs-timeout tie at the same virtual instant resolves in
//     scheduling-sequence order: a Trigger delivered while the waiter is
//     still parked always beats the timeout (the timer becomes stale), and
//     when both sides are driven by timers at the same instant, the timer
//     registered first fires first.
func (ev *Event) WaitTimeout(p *Proc, d Time) bool {
	if ev.fired {
		return true
	}
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.seq++
	e.timers.Push(timer{at: e.now + d, seq: e.seq, p: p, gen: p.gen})
	ev.waiters = append(ev.waiters, eventWaiter{p, p.gen})
	p.park(parkEventTimeout, e.now+d)
	return ev.fired
}

// Cond is a reusable broadcast condition: processes Wait on it, and each
// Broadcast wakes, at the current instant and in registration order, every
// process waiting at that moment. Unlike an Event it never stays fired — a
// Wait after a Broadcast parks until the next one — so one Cond serves a
// state that changes many times, where an Event would have to be replaced on
// every change. The waiter list keeps its storage across broadcasts, so a
// steady Wait/Broadcast cycle allocates nothing.
type Cond struct {
	eng     *Engine
	waiters []eventWaiter
	n       uint64 // broadcasts so far
}

// NewCond creates a condition with no waiters.
func (e *Engine) NewCond() *Cond { return &Cond{eng: e} }

// Broadcast wakes every process waiting on c. A registration whose process
// has already resumed (a WaitTimeout whose timer won) is skipped, as in
// Event.Trigger.
func (c *Cond) Broadcast() {
	c.n++
	c.eng.wakeWaiters(c.waiters)
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.register(p)
	p.park(parkEvent, 0)
}

// WaitTimeout parks p until the next Broadcast or until d virtual seconds
// elapse, whichever comes first, and reports whether a Broadcast woke it.
// Ties and d <= 0 resolve exactly as in Event.WaitTimeout: a Broadcast
// delivered while p is still parked beats a timer due at the same instant.
func (c *Cond) WaitTimeout(p *Proc, d Time) bool {
	if d < 0 {
		d = 0
	}
	n := c.n
	e := p.eng
	e.seq++
	e.timers.Push(timer{at: e.now + d, seq: e.seq, p: p, gen: p.gen})
	c.register(p)
	p.park(parkEventTimeout, e.now+d)
	return c.n != n
}

// register adds p as a waiter. Before the list would grow it drops the
// registrations whose processes have resumed since, which no Broadcast
// would wake, so timed-out waiters of a Cond that is seldom broadcast do
// not accumulate.
func (c *Cond) register(p *Proc) {
	if len(c.waiters) == cap(c.waiters) {
		c.waiters = slices.DeleteFunc(c.waiters, func(w eventWaiter) bool { return w.gen != w.p.gen })
	}
	c.waiters = append(c.waiters, eventWaiter{p, p.gen})
}

// Barrier blocks processes until n of them have arrived, then releases the
// whole group and resets for reuse (a cyclic barrier).
type Barrier struct {
	eng   *Engine
	n     int
	count int
	wait  []*Proc
}

// wakeAll readies every process of a wait list and empties it, keeping the
// backing array for the next round of waiters.
func (e *Engine) wakeAll(ps []*Proc) []*Proc {
	for _, p := range ps {
		e.makeReady(p)
	}
	clear(ps)
	return ps[:0]
}

// NewBarrier creates a cyclic barrier for n parties.
func (e *Engine) NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{eng: e, n: n}
}

// Arrive parks p until all n parties have arrived in the current generation.
func (b *Barrier) Arrive(p *Proc) {
	b.count++
	if b.count == b.n {
		b.count = 0
		b.wait = b.eng.wakeAll(b.wait)
		return
	}
	b.wait = append(b.wait, p)
	p.park(parkBarrier, 0)
}

// Resource is a counted resource with FIFO admission (e.g., SM slots on a
// GPU, or a link treated as a single-server queue).
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  ring[resWaiter]
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity.
func (e *Engine) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Acquire obtains n units, parking p in FIFO order if unavailable.
// It panics if n exceeds the total capacity (would never succeed).
func (r *Resource) Acquire(p *Proc, n int) {
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d", n, r.capacity))
	}
	if r.waiters.n == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters.push(resWaiter{p, n})
	p.park(parkResource, 0)
}

// Release returns n units and admits waiting processes in FIFO order.
// Waiters that were killed while parked are dropped without being charged —
// they will never run to release what they'd be granted.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource over-release")
	}
	for r.waiters.n > 0 {
		w := r.waiters.at(0)
		if w.p.done || w.p.abort {
			r.waiters.pop()
			continue
		}
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters.pop()
		r.inUse += w.n
		r.eng.makeReady(w.p)
	}
}

// Use acquires one unit, sleeps for service, then releases: the single-server
// FCFS queue used to model bandwidth-serialised links and serialized kernels.
// The release is deferred so a process killed mid-service still returns its
// units as it unwinds (a dead GPU must not wedge a shared link).
func (r *Resource) Use(p *Proc, n int, service Time) {
	r.Acquire(p, n)
	defer r.Release(n)
	p.Sleep(service)
}

// QueueOf is a bounded FIFO of T with virtual-time blocking semantics: Put
// parks while full, Get parks while empty. It implements the
// producer-consumer queues of the training pipeline.
type QueueOf[T any] struct {
	eng      *Engine
	capacity int
	items    ring[T]
	closed   bool
	getters  []*Proc
	putters  []*Proc
}

// Queue is the untyped queue (items of type any), kept as the name existing
// callers use; NewQueue constructs it.
type Queue = QueueOf[any]

// NewQueueOf creates a typed queue with the given capacity (must be
// positive).
func NewQueueOf[T any](e *Engine, capacity int) *QueueOf[T] {
	if capacity <= 0 {
		panic("sim: queue capacity must be positive")
	}
	return &QueueOf[T]{eng: e, capacity: capacity}
}

// NewQueue creates an untyped queue with the given capacity (must be
// positive).
func (e *Engine) NewQueue(capacity int) *Queue {
	return NewQueueOf[any](e, capacity)
}

// Len returns the number of buffered items.
func (q *QueueOf[T]) Len() int { return q.items.n }

// Put appends v, parking while the queue is full. Put on a closed queue
// panics (a pipeline bug).
func (q *QueueOf[T]) Put(p *Proc, v T) {
	for q.items.n >= q.capacity {
		q.putters = append(q.putters, p)
		p.park(parkQueueFull, 0)
	}
	if q.closed {
		panic("sim: put on closed queue")
	}
	q.items.push(v)
	q.getters = q.eng.wakeAll(q.getters)
}

// Get removes and returns the oldest item, parking while empty. ok is false
// if the queue is closed and drained.
func (q *QueueOf[T]) Get(p *Proc) (v T, ok bool) {
	for q.items.n == 0 && !q.closed {
		q.getters = append(q.getters, p)
		p.park(parkQueueEmpty, 0)
	}
	if q.items.n == 0 {
		return v, false
	}
	v = q.items.pop()
	q.putters = q.eng.wakeAll(q.putters)
	return v, true
}

// Close marks the queue as finished; blocked and future Gets drain remaining
// items and then return ok=false.
func (q *QueueOf[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.getters = q.eng.wakeAll(q.getters)
}
