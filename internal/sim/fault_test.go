package sim

import (
	"errors"
	"strings"
	"testing"
)

// --- WaitTimeout edge cases (pinned ordering) ------------------------------

// A zero timeout parks the process and wakes it at the same instant, after
// every currently runnable process has had a chance to run. Virtual time
// must not advance.
func TestWaitTimeoutZeroDoesNotAdvanceTime(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	fired := true
	e.Go("w", func(p *Proc) {
		p.Sleep(0.5)
		fired = ev.WaitTimeout(p, 0)
	})
	end, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Fatalf("zero timeout on unfired event reported fired")
	}
	if end != 0.5 {
		t.Fatalf("end = %g, want 0.5 (zero timeout must not advance time)", float64(end))
	}
}

// A zero timeout still loses to a Trigger performed by a process that was
// already runnable at the same instant: runnable processes execute before
// any timer (including the zero timer) pops.
func TestWaitTimeoutZeroLosesToRunnableTrigger(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	var fired bool
	e.Go("w", func(p *Proc) {
		fired = ev.WaitTimeout(p, 0)
	})
	e.Go("t", func(p *Proc) {
		ev.Trigger()
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired {
		t.Fatalf("trigger from a runnable process must beat a zero timeout")
	}
}

// When the event trigger and the timeout are both driven by timers at the
// same virtual instant, the timer registered first (lower scheduling seq)
// wins. Registering the trigger's sleep first → event wins.
func TestWaitTimeoutTieTriggerRegisteredFirst(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	var fired bool
	e.Go("t", func(p *Proc) {
		p.Sleep(1.0) // registered first: pops first at t=1
		ev.Trigger()
	})
	e.Go("w", func(p *Proc) {
		fired = ev.WaitTimeout(p, 1.0) // same instant, registered second
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired {
		t.Fatalf("tie at t=1: trigger timer was registered first and must win")
	}
}

// Same tie, reversed registration order: the timeout's timer pops first, the
// waiter wakes unfired, and the later Trigger at the same instant must not
// double-wake it (stale waiter registration).
func TestWaitTimeoutTieTimeoutRegisteredFirst(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	var fired bool
	wakeups := 0
	e.Go("w", func(p *Proc) {
		fired = ev.WaitTimeout(p, 1.0) // registered first: pops first at t=1
		wakeups++
	})
	e.Go("t", func(p *Proc) {
		p.Sleep(1.0)
		ev.Trigger()
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Fatalf("tie at t=1: timeout timer was registered first and must win")
	}
	if wakeups != 1 {
		t.Fatalf("waiter woke %d times, want exactly 1", wakeups)
	}
}

// The resolution order must be identical across repeated same-seed runs.
func TestWaitTimeoutTieDeterministicAcrossRuns(t *testing.T) {
	run := func() (bool, Time) {
		e := NewEngine()
		ev := e.NewEvent()
		var fired bool
		for i := 0; i < 4; i++ {
			e.Go("noise", func(p *Proc) { p.Sleep(1.0) })
		}
		e.Go("w", func(p *Proc) { fired = ev.WaitTimeout(p, 1.0) })
		e.Go("t", func(p *Proc) { p.Sleep(1.0); ev.Trigger() })
		end, err := e.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return fired, end
	}
	f0, t0 := run()
	for i := 0; i < 10; i++ {
		f, tt := run()
		if f != f0 || tt != t0 {
			t.Fatalf("run %d diverged: fired=%v end=%g vs fired=%v end=%g", i, f, tt, f0, t0)
		}
	}
}

// --- Interrupt / Kill / daemon semantics -----------------------------------

func TestInterruptUnwindsAndReturnsError(t *testing.T) {
	e := NewEngine()
	boom := errors.New("gpu 2 crashed")
	cleaned := 0
	for i := 0; i < 3; i++ {
		e.Go("worker", func(p *Proc) {
			defer func() { cleaned++ }()
			p.Sleep(100)
		})
	}
	e.Go("injector", func(p *Proc) {
		p.Sleep(1.5)
		e.Interrupt(boom)
	})
	end, err := e.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if end != 1.5 {
		t.Fatalf("end = %g, want 1.5", float64(end))
	}
	if cleaned != 3 {
		t.Fatalf("cleaned = %d, want 3 (defers must run during teardown)", cleaned)
	}
	// The engine stays usable after an interrupt: time is preserved.
	e.Go("after", func(p *Proc) { p.Sleep(0.5) })
	end, err = e.Run()
	if err != nil {
		t.Fatalf("run after interrupt: %v", err)
	}
	if end != 2.0 {
		t.Fatalf("end = %g, want 2.0", float64(end))
	}
}

func TestKillParkedSleepingAndUnstarted(t *testing.T) {
	e := NewEngine()
	var sleeper, waiter, unstarted *Proc
	ev := e.NewEvent()
	ran := false
	sleeper = e.Go("sleeper", func(p *Proc) { p.Sleep(100) })
	waiter = e.Go("waiter", func(p *Proc) { ev.Wait(p) })
	e.Go("killer", func(p *Proc) {
		p.Sleep(1)
		unstarted = e.Go("unstarted", func(p *Proc) { ran = true })
		e.Kill(sleeper)
		e.Kill(waiter)
		e.Kill(unstarted)
	})
	end, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v (killed procs must not deadlock)", err)
	}
	if end != 1 {
		t.Fatalf("end = %g, want 1 (sleeper's timer must be discarded)", float64(end))
	}
	if ran {
		t.Fatalf("killed-before-start process ran")
	}
	e.Kill(sleeper) // killing a finished process is a no-op
}

// Killing a process that holds a resource must release it (deferred release
// runs during unwinding) without waking already-finished waiters.
func TestKillReleasesHeldResources(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	var holder *Proc
	acquired := false
	holder = e.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		defer r.Release(1)
		p.Sleep(100)
	})
	e.Go("waiter", func(p *Proc) {
		r.Acquire(p, 1)
		acquired = true
		r.Release(1)
	})
	e.Go("killer", func(p *Proc) {
		p.Sleep(1)
		e.Kill(holder)
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !acquired {
		t.Fatalf("waiter never acquired the resource released by the killed holder")
	}
}

// A parked daemon with a pending timer must not keep Run alive or inflate
// the end time once all non-daemon work has finished — and it must resume on
// the next Run call of the same engine.
func TestDaemonDoesNotExtendRun(t *testing.T) {
	e := NewEngine()
	daemonFiredAt := Time(-1)
	e.GoDaemon("injector", func(p *Proc) {
		p.Sleep(5)
		daemonFiredAt = p.Now()
	})
	e.Go("work", func(p *Proc) { p.Sleep(1) })
	end, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if end != 1 {
		t.Fatalf("end = %g, want 1 (daemon timer must not extend the run)", float64(end))
	}
	if daemonFiredAt != -1 {
		t.Fatalf("daemon fired during a run with no overlapping work")
	}
	// More work past the daemon's wakeup: now it fires mid-run.
	e.Go("work2", func(p *Proc) { p.Sleep(9) })
	end, err = e.Run()
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if end != 10 {
		t.Fatalf("end = %g, want 10", float64(end))
	}
	if daemonFiredAt != 5 {
		t.Fatalf("daemon fired at %g, want 5", float64(daemonFiredAt))
	}
}

// --- Deadlock report wording and process panics ----------------------------

// The report's text is part of what CI compares byte for byte (the
// ablation tables print it). This string was produced by the channel-handoff
// kernel, which formatted a reason on every park; the reasons are now built
// only here, from the park kind.
func TestDeadlockReportWording(t *testing.T) {
	e := NewEngine()
	ev, bar, res := e.NewEvent(), e.NewBarrier(2), e.NewResource(1)
	full, empty := NewQueueOf[int](e, 1), NewQueueOf[int](e, 1)
	e.Go("a", func(p *Proc) { p.Sleep(2); ev.Wait(p) })
	e.Go("b", bar.Arrive)
	e.Go("c", func(p *Proc) { res.Acquire(p, 1); res.Acquire(p, 1) })
	e.Go("d", func(p *Proc) { full.Put(p, 1); full.Put(p, 2) })
	e.Go("e", func(p *Proc) { empty.Get(p) })
	e.GoDaemon("f", ev.Wait)
	_, err := e.Run()
	const want = "sim: deadlock at t=2 with 6 parked processes: " +
		"a: event; b: barrier; c: resource; d: queue full; e: queue empty; f: event"
	if err == nil || err.Error() != want {
		t.Fatalf("deadlock report:\n got %v\nwant %s", err, want)
	}
	// A sleeper always has a live timer, so Run never reports these two; they
	// keep the old kernel's words for whoever prints a parked process.
	for want, p := range map[string]*Proc{
		"sleep until 1.5":            {why: parkSleep, until: 1.5},
		"event or timeout at 0.0025": {why: parkEventTimeout, until: 0.0025},
	} {
		if got := p.reason(); got != want {
			t.Errorf("reason %q, want %q", got, want)
		}
	}
}

// A panic in a process body used to kill the test binary from an anonymous
// goroutine. Now it surfaces from Run, on the caller's goroutine, naming the
// process, after the other processes have unwound, and the engine stays
// usable.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	unwound := false
	e.Go("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(10)
	})
	e.Go("boom", func(p *Proc) {
		p.Sleep(1)
		panic(errors.New("kaput"))
	})
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `process "boom"`) || !strings.Contains(msg, "kaput") {
				t.Fatalf("Run panicked with %q, want the process name and the cause", msg)
			}
		}()
		e.Run()
		t.Fatal("Run returned although a process panicked")
	}()
	if !unwound {
		t.Fatal("the other process was not unwound before the panic was re-raised")
	}
	ran := false
	e.Go("after", func(p *Proc) { p.Sleep(1); ran = true })
	if end := mustRun(t, e); !ran || end != 2 {
		t.Fatalf("engine unusable after a process panic: ran=%v end=%v", ran, end)
	}
}
