package sim

import (
	"strings"
	"testing"
)

func mustRun(t *testing.T, e *Engine) Time {
	t.Helper()
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return end
}

func TestSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		woke = p.Now()
	})
	end := mustRun(t, e)
	if woke != 2.5 || end != 2.5 {
		t.Fatalf("woke=%v end=%v, want 2.5", woke, end)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) { p.Sleep(-1) })
	if end := mustRun(t, e); end != 0 {
		t.Fatalf("end=%v, want 0", end)
	}
}

func TestProcessInterleavingDeterministic(t *testing.T) {
	runOnce := func() []string {
		e := NewEngine()
		var order []string
		for _, spec := range []struct {
			name  string
			delay Time
		}{{"a", 3}, {"b", 1}, {"c", 2}, {"d", 1}} {
			spec := spec
			e.Go(spec.name, func(p *Proc) {
				p.Sleep(spec.delay)
				order = append(order, spec.name)
				p.Sleep(spec.delay)
				order = append(order, spec.name+"2")
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := strings.Join(runOnce(), ",")
	for i := 0; i < 5; i++ {
		if got := strings.Join(runOnce(), ","); got != first {
			t.Fatalf("nondeterministic order: %q vs %q", got, first)
		}
	}
	// Equal wake times resolve in spawn order: b before d at t=1.
	if !strings.HasPrefix(first, "b,d,") {
		t.Fatalf("tie-break order wrong: %q", first)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Go("parent", func(p *Proc) {
		p.Sleep(1)
		e.Go("child", func(c *Proc) {
			c.Sleep(1)
			childRan = true
		})
	})
	end := mustRun(t, e)
	if !childRan || end != 2 {
		t.Fatalf("childRan=%v end=%v", childRan, end)
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	woke := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			ev.Wait(p)
			woke++
		})
	}
	e.Go("trigger", func(p *Proc) {
		p.Sleep(5)
		ev.Trigger()
	})
	end := mustRun(t, e)
	if woke != 3 || end != 5 {
		t.Fatalf("woke=%d end=%v", woke, end)
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	ev.Trigger()
	ran := false
	e.Go("p", func(p *Proc) {
		ev.Wait(p)
		ran = true
	})
	mustRun(t, e)
	if !ran {
		t.Fatal("waiter on fired event did not proceed")
	}
}

func TestDoubleTriggerIsNoop(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	ev.Trigger()
	ev.Trigger()
	if !ev.Fired() {
		t.Fatal("event not fired")
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	e := NewEngine()
	b := e.NewBarrier(3)
	var release []Time
	for i := 0; i < 3; i++ {
		d := Time(i + 1)
		e.Go("w", func(p *Proc) {
			p.Sleep(d)
			b.Arrive(p)
			release = append(release, p.Now())
		})
	}
	mustRun(t, e)
	if len(release) != 3 {
		t.Fatalf("released %d, want 3", len(release))
	}
	for _, r := range release {
		if r != 3 {
			t.Fatalf("release time %v, want 3 (latest arrival)", r)
		}
	}
}

func TestBarrierIsCyclic(t *testing.T) {
	e := NewEngine()
	b := e.NewBarrier(2)
	count := 0
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *Proc) {
			for r := 0; r < 3; r++ {
				p.Sleep(1)
				b.Arrive(p)
				count++
			}
		})
	}
	mustRun(t, e)
	if count != 6 {
		t.Fatalf("count=%d, want 6", count)
	}
}

func TestResourceFCFS(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Go(name, func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, name)
			p.Sleep(1)
			r.Release(1)
		})
	}
	end := mustRun(t, e)
	if got := strings.Join(order, ","); got != "a,b,c" {
		t.Fatalf("order=%q, want FIFO a,b,c", got)
	}
	if end != 3 {
		t.Fatalf("end=%v, want 3 (serialized)", end)
	}
}

func TestResourceParallelism(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(2)
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) { r.Use(p, 1, 1) })
	}
	if end := mustRun(t, e); end != 2 {
		t.Fatalf("end=%v, want 2 (two waves of two)", end)
	}
}

func TestResourceOverAcquirePanics(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(2)
	var recovered interface{}
	e.Go("p", func(p *Proc) {
		defer func() { recovered = recover() }()
		r.Acquire(p, 3)
	})
	mustRun(t, e)
	if recovered == nil {
		t.Fatal("acquiring beyond capacity did not panic")
	}
}

func TestQueueBlocksWhenFull(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue(2)
	var putDone Time
	e.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // blocks until consumer takes one
		putDone = p.Now()
	})
	e.Go("consumer", func(p *Proc) {
		p.Sleep(10)
		if v, ok := q.Get(p); !ok || v.(int) != 1 {
			t.Errorf("got %v,%v", v, ok)
		}
	})
	mustRun(t, e)
	if putDone != 10 {
		t.Fatalf("third Put completed at %v, want 10", putDone)
	}
}

func TestQueueBlocksWhenEmpty(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue(1)
	var got interface{}
	var gotAt Time
	e.Go("consumer", func(p *Proc) {
		got, _ = q.Get(p)
		gotAt = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(4)
		q.Put(p, "x")
	})
	mustRun(t, e)
	if got != "x" || gotAt != 4 {
		t.Fatalf("got=%v at %v", got, gotAt)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue(10)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
			p.Sleep(1)
		}
		q.Close()
	})
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	mustRun(t, e)
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestQueueCloseUnblocksGetters(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue(1)
	okSeen := true
	e.Go("consumer", func(p *Proc) {
		_, okSeen = q.Get(p)
	})
	e.Go("closer", func(p *Proc) {
		p.Sleep(1)
		q.Close()
	})
	mustRun(t, e)
	if okSeen {
		t.Fatal("Get on closed empty queue returned ok=true")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	evA, evB := e.NewEvent(), e.NewEvent()
	e.Go("one", func(p *Proc) {
		evA.Wait(p)
		evB.Trigger()
	})
	e.Go("two", func(p *Proc) {
		evB.Wait(p)
		evA.Trigger()
	})
	_, err := e.Run()
	derr, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(derr.Parked) != 2 {
		t.Fatalf("parked=%v", derr.Parked)
	}
	if !strings.Contains(derr.Error(), "one") || !strings.Contains(derr.Error(), "two") {
		t.Fatalf("error lacks process names: %v", derr)
	}
}

func TestDeadlockAbortRunsDefers(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	cleaned := false
	e.Go("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		ev.Wait(p)
	})
	if _, err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	if !cleaned {
		t.Fatal("defer did not run on abort")
	}
}

func TestManyProcessesStress(t *testing.T) {
	e := NewEngine()
	const n = 500
	done := 0
	res := e.NewResource(8)
	for i := 0; i < n; i++ {
		e.Go("w", func(p *Proc) {
			res.Use(p, 1, 0.001)
			done++
		})
	}
	mustRun(t, e)
	if done != n {
		t.Fatalf("done=%d, want %d", done, n)
	}
}

func TestWaitTimeoutEventFirst(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	var fired bool
	var at Time
	e.Go("waiter", func(p *Proc) {
		fired = ev.WaitTimeout(p, 10)
		at = p.Now()
	})
	e.Go("trigger", func(p *Proc) {
		p.Sleep(2)
		ev.Trigger()
	})
	end := mustRun(t, e)
	if !fired || at != 2 {
		t.Fatalf("fired=%v at=%v, want event win at t=2", fired, at)
	}
	// The stale 10s timeout timer must not drag the end time out to 10.
	if end != 2 {
		t.Fatalf("end=%v, want 2 (stale timer inflated the run)", end)
	}
}

func TestWaitTimeoutDeadlineFirst(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	var fired bool
	var at Time
	e.Go("waiter", func(p *Proc) {
		fired = ev.WaitTimeout(p, 3)
		at = p.Now()
		// A later Trigger must not resume this process a second time.
		p.Sleep(5)
	})
	e.Go("trigger", func(p *Proc) {
		p.Sleep(6)
		ev.Trigger()
	})
	end := mustRun(t, e)
	if fired || at != 3 {
		t.Fatalf("fired=%v at=%v, want timeout at t=3", fired, at)
	}
	if end != 8 {
		t.Fatalf("end=%v, want 8", end)
	}
}

func TestWaitTimeoutAlreadyFired(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	var fired bool
	var at Time
	e.Go("waiter", func(p *Proc) {
		ev.Trigger()
		fired = ev.WaitTimeout(p, 5)
		at = p.Now()
	})
	end := mustRun(t, e)
	if !fired || at != 0 || end != 0 {
		t.Fatalf("fired=%v at=%v end=%v, want immediate return", fired, at, end)
	}
}

func TestWaitTimeoutSameInstantEventWins(t *testing.T) {
	// Event triggered at exactly the deadline instant, but while the ready
	// queue is non-empty: the trigger path runs first and must report fired.
	e := NewEngine()
	ev := e.NewEvent()
	var fired bool
	e.Go("trigger", func(p *Proc) {
		p.Sleep(1)
		ev.Trigger()
	})
	e.Go("waiter", func(p *Proc) {
		fired = ev.WaitTimeout(p, 1)
	})
	end := mustRun(t, e)
	if end != 1 {
		t.Fatalf("end=%v, want 1", end)
	}
	_ = fired // either wake source is legal at the exact tie; run must not hang
}

func TestWaitTimeoutRepeatedCycles(t *testing.T) {
	// A condition-variable style loop: the consumer repeatedly waits with a
	// timeout while a producer signals via a fresh event each round.
	e := NewEngine()
	var wake *Event
	wake = e.NewEvent()
	rounds := 0
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(0.5)
			old := wake
			wake = e.NewEvent()
			old.Trigger()
		}
	})
	e.Go("consumer", func(p *Proc) {
		for rounds < 5 {
			ev := wake
			if ev.WaitTimeout(p, 10) {
				rounds++
			}
		}
	})
	end := mustRun(t, e)
	if rounds != 5 {
		t.Fatalf("rounds=%d, want 5", rounds)
	}
	if end != 2.5 {
		t.Fatalf("end=%v, want 2.5", end)
	}
}
