package sim

import (
	"fmt"
	"testing"
)

// runParallelWorkload runs a small pipeline where every process offloads a
// data unit between commit points, and returns a transcript of (virtual
// time, merged value) pairs. The transcript must be identical at any
// parallelism.
func runParallelWorkload(par int) string {
	e := NewEngine()
	e.SetParallelism(par)
	g := e.NewParallelGroup()
	out := ""
	for r := 0; r < 4; r++ {
		rank := r
		e.Go(fmt.Sprintf("rank%d", rank), func(p *Proc) {
			for step := 0; step < 3; step++ {
				buf := make([]int, 64)
				tk := g.Submit(func() {
					for i := range buf {
						buf[i] = rank*1000 + step*100 + i
					}
				})
				// Ranks reach their commit points at distinct virtual times.
				p.Sleep(Time(rank+1) * 0.001)
				tk.Join()
				sum := 0
				for _, v := range buf {
					sum += v
				}
				out += fmt.Sprintf("[t=%g r%d s%d sum=%d]", float64(p.Now()), rank, step, sum)
			}
		})
	}
	if _, err := e.Run(); err != nil {
		return "err: " + err.Error()
	}
	return out
}

// TestParallelGroupDeterministic checks the offload/join schedule is
// byte-identical across parallelism levels, including the scatter path.
func TestParallelGroupDeterministic(t *testing.T) {
	want := runParallelWorkload(1)
	for _, par := range []int{2, 4, 8} {
		if got := runParallelWorkload(par); got != want {
			t.Fatalf("parallelism %d diverged:\n got %s\nwant %s", par, got, want)
		}
	}
}

func TestParallelGroupScatter(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := NewEngine()
		e.SetParallelism(par)
		g := e.NewParallelGroup()
		res := make([]int, 37)
		fns := make([]func(), len(res))
		for i := range fns {
			i := i
			fns[i] = func() { res[i] = i * i }
		}
		g.Run(fns)
		for i, v := range res {
			if v != i*i {
				t.Fatalf("par %d: slot %d = %d", par, i, v)
			}
		}
	}
}

func TestTicketJoinIdempotentForNil(t *testing.T) {
	var tk Ticket
	tk.Join() // the zero ticket joins at once
}
