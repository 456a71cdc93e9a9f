package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// broadcaster is what a state-change wakeup needs: Cond, and the pattern it
// replaced.
type broadcaster interface {
	Wait(p *Proc)
	WaitTimeout(p *Proc, d Time) bool
	Broadcast()
}

// replaced is the trigger-and-replace condition Cond replaced: every
// Broadcast triggers the current one-shot event and installs a fresh one.
type replaced struct {
	eng *Engine
	ev  *Event
}

func (r *replaced) Wait(p *Proc)                     { r.ev.Wait(p) }
func (r *replaced) WaitTimeout(p *Proc, d Time) bool { return r.ev.WaitTimeout(p, d) }
func (r *replaced) Broadcast() {
	old := r.ev
	r.ev = r.eng.NewEvent()
	old.Trigger()
}

// condSchedule runs a seeded mix of waiters and broadcasters over one
// condition and logs every wakeup as (time, process, how it woke). Delays are
// whole milliseconds, zero included, so broadcasts, deadlines and zero
// timeouts keep landing on the same instant.
func condSchedule(t *testing.T, seed int64, mk func(*Engine) broadcaster) []string {
	t.Helper()
	e := NewEngine()
	c := mk(e)
	r := rand.New(rand.NewSource(seed))
	delay := func() Time { return Time(r.Intn(3)) * 1e-3 }
	var log []string
	for i := 0; i < 6; i++ {
		e.Go(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			for j := 0; j < 40; j++ {
				switch r.Intn(4) {
				case 0:
					c.Wait(p)
					log = append(log, fmt.Sprintf("%g %s wait", p.Now(), p.Name()))
				case 1:
					p.Sleep(delay())
				default:
					woke := c.WaitTimeout(p, delay())
					log = append(log, fmt.Sprintf("%g %s timeout %v", p.Now(), p.Name(), woke))
				}
				if r.Intn(8) == 0 {
					c.Broadcast()
				}
			}
		})
	}
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("broadcaster%d", i), func(p *Proc) {
			for j := 0; j < 80; j++ {
				p.Sleep(delay())
				c.Broadcast()
			}
		})
	}
	// Waiters parked in Wait when the broadcasters finish are a deadlock;
	// the report, which names them, is part of the log.
	if _, err := e.Run(); err != nil {
		log = append(log, err.Error())
	}
	return log
}

// TestCondMatchesTriggerAndReplace: on mixed Wait / WaitTimeout schedules
// with zero timeouts, same-instant ties and broadcasts from waiters
// themselves, a Cond wakes the same processes at the same instants, in the
// same order and with the same WaitTimeout results as trigger-and-replace.
func TestCondMatchesTriggerAndReplace(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		want := condSchedule(t, seed, func(e *Engine) broadcaster { return &replaced{e, e.NewEvent()} })
		got := condSchedule(t, seed, func(e *Engine) broadcaster { return e.NewCond() })
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: wakeup %d is %q, trigger-and-replace gives %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d wakeups, trigger-and-replace gives %d", seed, len(got), len(want))
		}
	}
}

// TestCondZeroTimeoutLosesToBroadcast: WaitTimeout(0) parks and wakes at the
// same instant by its timer, after every process runnable at that instant,
// so a Broadcast from one of them wins; with none it times out.
func TestCondZeroTimeoutLosesToBroadcast(t *testing.T) {
	for _, broadcast := range []bool{true, false} {
		e := NewEngine()
		c := e.NewCond()
		var woke bool
		var at Time = -1
		e.Go("waiter", func(p *Proc) {
			woke = c.WaitTimeout(p, 0)
			at = p.Now()
		})
		e.Go("other", func(p *Proc) {
			if broadcast {
				c.Broadcast()
			}
		})
		mustRun(t, e)
		if woke != broadcast || at != 0 {
			t.Errorf("broadcast %v: WaitTimeout(0) returned %v at t=%g, want %v at t=0", broadcast, woke, at, broadcast)
		}
	}
}

// TestCondSkipsTimedOutWaiters: a waiter whose timeout won is not woken by a
// later Broadcast while it sleeps elsewhere, and the registrations such
// waiters leave behind are dropped before the list grows, so a condition that
// is never broadcast does not accumulate them.
func TestCondSkipsTimedOutWaiters(t *testing.T) {
	e := NewEngine()
	c := e.NewCond()
	var woke []Time
	e.Go("waiter", func(p *Proc) {
		if c.WaitTimeout(p, 1) {
			t.Error("timed-out WaitTimeout reported a broadcast")
		}
		p.Sleep(5) // t = 1 .. 6; the broadcast at t = 2 must not cut this short
		woke = append(woke, p.Now())
		for range 1000 {
			c.WaitTimeout(p, 1e-3)
		}
	})
	e.Go("broadcaster", func(p *Proc) {
		p.Sleep(2)
		c.Broadcast()
	})
	mustRun(t, e)
	if len(woke) != 1 || woke[0] != 6 {
		t.Errorf("waiter resumed from its sleep at %v, want [6]", woke)
	}
	if n := len(c.waiters); n > 1 {
		t.Errorf("%d registrations left after 1000 timed-out waits, want at most 1", n)
	}
}

// TestCondCycleAllocs: once its waiter list has grown, a Wait + Broadcast
// cycle allocates nothing.
func TestCondCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := NewEngine()
	c := e.NewCond()
	var allocs float64
	stop := false
	e.Go("waiter", func(p *Proc) {
		for !stop {
			c.Wait(p)
		}
	})
	e.Go("broadcaster", func(p *Proc) {
		cycle := func() {
			c.Broadcast()
			p.Sleep(1e-6) // the waiter wakes and waits again
		}
		allocs = testing.AllocsPerRun(100, cycle)
		stop = true
		c.Broadcast()
	})
	mustRun(t, e)
	if allocs != 0 {
		t.Errorf("a warm Wait + Broadcast cycle allocates %v objects, want 0", allocs)
	}
}
