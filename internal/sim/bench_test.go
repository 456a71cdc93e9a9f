package sim

import (
	"fmt"
	"testing"
)

// The kernel's slice of the two-clock ledger: one benchmark per primitive at
// 1, 8 and 64 processes, b.N operations shared between them. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/sim/
//
// ns/op and allocs/op are per operation (one park for Sleep and WaitTimeout,
// two for a contended Resource.Use and for Barrier's sleep-then-arrive, about
// one for a queue item), and events/s is operations per host second.
// TestParkAllocations runs the same loads.

// A load spawns procs processes (pairs, for the queue) that each perform per
// operations of one primitive.
type load func(e *Engine, procs, per int)

func sleepLoad(e *Engine, procs, per int) {
	for i := 0; i < procs; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(Time(1+(i*7+j)%13) * 1e-6)
			}
		})
	}
}

func resourceLoad(e *Engine, procs, per int) {
	r := e.NewResource(2)
	for i := 0; i < procs; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < per; j++ {
				r.Use(p, 1, 1e-6)
			}
		})
	}
}

// queueLoad moves items through capacity-2 queues (the pipeline's), one
// producer and one consumer per queue.
func queueLoad(e *Engine, procs, per int) {
	for i := 0; i < procs; i++ {
		q := NewQueueOf[int](e, 2)
		e.Go("producer", func(p *Proc) {
			for j := 0; j < per; j++ {
				q.Put(p, j)
			}
			q.Close()
		})
		e.Go("consumer", func(p *Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
	}
}

func waitTimeoutLoad(e *Engine, procs, per int) {
	never := e.NewEvent()
	for i := 0; i < procs; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < per; j++ {
				never.WaitTimeout(p, Time(1+j%3)*1e-6)
			}
		})
	}
}

func barrierLoad(e *Engine, procs, per int) {
	bar := e.NewBarrier(procs)
	for i := 0; i < procs; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(1e-6)
				bar.Arrive(p)
			}
		})
	}
}

func benchLoad(b *testing.B, spawn load) {
	for _, procs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			e := NewEngine()
			per := b.N/procs + 1
			spawn(e, procs, per)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(procs*per)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

func BenchmarkSleep(b *testing.B)         { benchLoad(b, sleepLoad) }
func BenchmarkResourceUse(b *testing.B)   { benchLoad(b, resourceLoad) }
func BenchmarkQueuePingPong(b *testing.B) { benchLoad(b, queueLoad) }
func BenchmarkWaitTimeout(b *testing.B)   { benchLoad(b, waitTimeoutLoad) }
func BenchmarkBarrier(b *testing.B)       { benchLoad(b, barrierLoad) }
