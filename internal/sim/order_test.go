package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/rng"
)

// pinnedOrderHash and pinnedOrderEvents were recorded by running
// orderScenario(2023) on the channel-handoff kernel (the commit before the
// coroutine switch). The scenario only uses the package's public surface, so
// a kernel change that resumes any process in a different order, at a
// different virtual time, or words a deadlock report differently moves the
// hash.
const (
	pinnedOrderHash   = 0x19ee830d74766183
	pinnedOrderEvents = 2527
)

// orderLog folds (virtual time, process, op) records into an FNV-1a hash.
type orderLog struct {
	h   hash.Hash64
	n   int
	buf [17]byte
}

func (l *orderLog) add(now Time, id int, op byte) {
	binary.LittleEndian.PutUint64(l.buf[0:], math.Float64bits(float64(now)))
	binary.LittleEndian.PutUint64(l.buf[8:], uint64(int64(id)))
	l.buf[16] = op
	l.h.Write(l.buf[:])
	l.n++
}

// orderScenario runs ~330 processes over three Run calls of one engine: a
// clean run that leaves daemons parked, a run ended by Interrupt, and a run
// ended by deadlock detection. Durations are small multiples of one unit so
// same-instant ties (timer vs timer, Trigger vs timeout, FIFO admissions) are
// the common case, and all processes draw from ONE generator, so a single
// out-of-order resume changes every later draw.
func orderScenario(seed uint64) (sum uint64, events int) {
	const unit = Time(1e-6)
	r := rng.New(seed)
	lg := &orderLog{h: fnv.New64a()}
	e := NewEngine()
	tick := func() Time { return unit * Time(r.Intn(6)) }

	nextID := 0
	spawn := func(daemon bool, body func(p *Proc, id int)) *Proc {
		id := nextID
		nextID++
		fn := func(p *Proc) {
			lg.add(p.Now(), id, 'S')
			defer func() { lg.add(p.Now(), id, 'X') }() // also records teardown order
			body(p, id)
		}
		if daemon {
			return e.GoDaemon(fmt.Sprintf("d%d", id), fn)
		}
		return e.Go(fmt.Sprintf("p%d", id), fn)
	}

	resCap := []int{1, 2, 3, 4}
	var res []*Resource
	for _, c := range resCap {
		res = append(res, e.NewResource(c))
	}
	// mixed runs steps random ops against the shared resources and events.
	// Every event in evs must eventually fire (ops 3 waits without timeout).
	mixed := func(evs []*Event, steps int) func(p *Proc, id int) {
		return func(p *Proc, id int) {
			for s := 0; s < steps; s++ {
				switch op := r.Intn(5); op {
				case 0:
					p.Sleep(tick())
					lg.add(p.Now(), id, 's')
				case 1:
					k := r.Intn(len(res))
					res[k].Use(p, 1+r.Intn(resCap[k]), tick())
					lg.add(p.Now(), id, 'u')
				case 2:
					if evs[r.Intn(len(evs))].WaitTimeout(p, tick()) {
						lg.add(p.Now(), id, 'T')
					} else {
						lg.add(p.Now(), id, 't')
					}
				case 3:
					evs[r.Intn(len(evs))].Wait(p)
					lg.add(p.Now(), id, 'w')
				case 4:
					k := r.Intn(len(res))
					n := 1 + r.Intn(resCap[k])
					res[k].Acquire(p, n)
					p.Sleep(tick())
					res[k].Release(n)
					lg.add(p.Now(), id, 'a')
				}
			}
		}
	}
	// triggers fires every event of evs, a few per process, at tied instants.
	triggers := func(evs []*Event, per int) {
		for lo := 0; lo < len(evs); lo += per {
			mine := evs[lo:min(lo+per, len(evs))]
			spawn(false, func(p *Proc, id int) {
				for _, ev := range mine {
					p.Sleep(unit + tick())
					ev.Trigger()
					lg.add(p.Now(), id, 'f')
				}
			})
		}
	}
	newEvents := func(n int) []*Event {
		evs := make([]*Event, n)
		for i := range evs {
			evs[i] = e.NewEvent()
		}
		return evs
	}
	queueGroup := func(producers, consumers, items int) {
		q := NewQueueOf[int](e, 1+r.Intn(3))
		open := producers
		for i := 0; i < producers; i++ {
			spawn(false, func(p *Proc, id int) {
				for j := 0; j < items; j++ {
					if r.Intn(2) == 0 {
						p.Sleep(tick())
					}
					q.Put(p, id*100+j)
					lg.add(p.Now(), id, 'p')
				}
				if open--; open == 0 {
					q.Close()
				}
			})
		}
		for i := 0; i < consumers; i++ {
			spawn(false, func(p *Proc, id int) {
				for {
					v, ok := q.Get(p)
					if !ok {
						return
					}
					lg.add(p.Now(), v, 'g')
					if r.Intn(3) == 0 {
						p.Sleep(tick())
					}
				}
			})
		}
	}
	barrierGroup := func(n, rounds int) {
		b := e.NewBarrier(n)
		for i := 0; i < n; i++ {
			spawn(false, func(p *Proc, id int) {
				for k := 0; k < rounds; k++ {
					p.Sleep(tick())
					b.Arrive(p)
					lg.add(p.Now(), id, 'b')
				}
			})
		}
	}
	endRun := func(want error) {
		end, err := e.Run()
		lg.add(end, -1, 'R')
		if !errors.Is(err, want) {
			panic(fmt.Sprintf("order scenario: Run returned %v, want %v", err, want))
		}
	}

	// ---- Run 1: everything finishes; daemons stay parked. ----
	evs := newEvents(24)
	triggers(evs, 8)
	for i := 0; i < 100; i++ {
		spawn(false, mixed(evs, 12))
	}
	for i := 0; i < 6; i++ {
		queueGroup(2, 2, 8)
	}
	for i := 0; i < 5; i++ {
		barrierGroup(8, 5)
	}
	// Victims would never finish on their own; each is killed by a killer.
	never := e.NewEvent()
	dead := NewQueueOf[int](e, 1)
	var victims []*Proc
	for i := 0; i < 20; i++ {
		kind := i % 5
		victims = append(victims, spawn(false, func(p *Proc, id int) {
			switch kind {
			case 0:
				p.Sleep(1000 * unit)
			case 1:
				res[0].Use(p, 1, 500*unit)
			case 2:
				dead.Get(p)
			case 3:
				never.Wait(p)
			case 4:
				e.Kill(p) // self-kill: unwinds at the next scheduling point
				lg.add(p.Now(), id, 'k')
				p.Sleep(unit)
			}
			lg.add(p.Now(), id, '!') // unreachable
		}))
	}
	for i := 0; i < 10; i++ {
		spawn(false, func(p *Proc, id int) {
			p.Sleep(unit*Time(i%4) + tick())
			e.Kill(victims[2*i])
			e.Kill(victims[2*i+1])
			lg.add(p.Now(), id, 'K')
			// Spawn from inside a running process, then kill the child before
			// it ever runs (odd i) or let it run (even i).
			child := spawn(false, func(p *Proc, id int) { p.Sleep(tick()) })
			if i%2 == 1 {
				e.Kill(child)
			}
		})
	}
	e.Kill(spawn(false, func(p *Proc, id int) {})) // killed before Run starts
	feed := NewQueueOf[int](e, 2)
	late := e.NewEvent()
	spawn(true, func(p *Proc, id int) {
		for {
			p.Sleep(3 * unit)
			lg.add(p.Now(), id, 'd')
		}
	})
	spawn(true, func(p *Proc, id int) {
		for {
			res[1].Use(p, 1, 7*unit)
			lg.add(p.Now(), id, 'd')
		}
	})
	spawn(true, func(p *Proc, id int) {
		for {
			v, ok := feed.Get(p)
			if !ok {
				return
			}
			lg.add(p.Now(), v, 'G')
		}
	})
	spawn(true, func(p *Proc, id int) {
		for !late.WaitTimeout(p, 5*unit) {
			lg.add(p.Now(), id, 'd')
		}
		lg.add(p.Now(), id, 'L')
		never.Wait(p)
	})
	endRun(nil)

	// ---- Run 2: same engine, daemons resume; ended by Interrupt. ----
	evs = newEvents(8)
	triggers(evs, 2)
	for i := 0; i < 40; i++ {
		spawn(false, mixed(evs, 10))
	}
	queueGroup(3, 2, 6)
	barrierGroup(6, 4)
	spawn(false, func(p *Proc, id int) {
		for j := 0; j < 6; j++ {
			p.Sleep(tick())
			feed.Put(p, j)
		}
		late.Trigger()
	})
	stop := errors.New("stop")
	spawn(false, func(p *Proc, id int) {
		p.Sleep(9 * unit)
		lg.add(p.Now(), id, 'I')
		e.Interrupt(stop)
	})
	endRun(stop)

	// ---- Run 3: same engine again; ended by deadlock detection. ----
	evs = newEvents(4)
	triggers(evs, 2)
	for i := 0; i < 12; i++ {
		spawn(false, mixed(evs, 6))
	}
	full := NewQueueOf[int](e, 1)
	alone := e.NewBarrier(3)
	held := e.NewResource(1)
	for i := 0; i < 12; i++ {
		kind := i % 6
		spawn(kind == 5, func(p *Proc, id int) {
			p.Sleep(tick())
			switch kind {
			case 0:
				never.Wait(p)
			case 1:
				held.Acquire(p, 1) // the first one holds it, the second waits forever
				never.Wait(p)
			case 2:
				dead.Get(p)
			case 3:
				full.Put(p, id)
				full.Put(p, id)
			case 4:
				alone.Arrive(p)
				never.Wait(p)
			case 5:
				never.Wait(p) // a parked daemon is listed in the report too
			}
		})
	}
	end, err := e.Run()
	lg.add(end, -1, 'R')
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		panic(fmt.Sprintf("order scenario: Run 3 returned %v, want a deadlock", err))
	}
	lg.h.Write([]byte(derr.Error()))
	return lg.h.Sum64(), lg.n
}

// TestEventOrderPinned holds the kernel to the event order of the
// channel-handoff kernel it replaced (see pinnedOrderHash).
func TestEventOrderPinned(t *testing.T) {
	sum, n := orderScenario(2023)
	if sum != pinnedOrderHash || n != pinnedOrderEvents {
		t.Fatalf("event order moved: hash %#x over %d events, pinned %#x over %d",
			sum, n, uint64(pinnedOrderHash), pinnedOrderEvents)
	}
	if again, _ := orderScenario(2023); again != sum {
		t.Fatalf("scenario not deterministic: %#x then %#x", sum, again)
	}
}
