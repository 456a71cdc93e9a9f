package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// mkStages builds stages with fixed virtual durations and a trace log.
func mkStages(batches int, sampleT, loadT, trainT sim.Time, trace *[]string) Stages[int, int] {
	return Stages[int, int]{
		NumBatches: batches,
		Samplers: []func(*sim.Proc, int) int{func(p *sim.Proc, step int) int {
			p.Sleep(sampleT)
			return step * 10
		}},
		Loaders: []func(*sim.Proc, int, int) int{func(p *sim.Proc, step, v int) int {
			if v != step*10 {
				panic("load got wrong payload")
			}
			p.Sleep(loadT)
			return step * 100
		}},
		Train: func(p *sim.Proc, step, v int) {
			if v != step*100 {
				panic("train got wrong payload")
			}
			p.Sleep(trainT)
			if trace != nil {
				*trace = append(*trace, "t")
			}
		},
	}
}

func TestPipelineOverlapsStages(t *testing.T) {
	// 10 batches, each stage 1s. Sequential: 30s. Pipelined: ~12s.
	run := func(pipelined bool) sim.Time {
		eng := sim.NewEngine()
		done := eng.NewEvent()
		s := mkStages(10, 1, 1, 1, nil)
		if pipelined {
			RunPipelined(eng, "gpu0", s, 2, done)
		} else {
			RunSequential(eng, "gpu0", s, done)
		}
		end, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !done.Fired() {
			t.Fatal("epoch did not complete")
		}
		return end
	}
	seq := run(false)
	pipe := run(true)
	if seq != 30 {
		t.Fatalf("sequential end %v, want 30", seq)
	}
	if pipe > 13 {
		t.Fatalf("pipelined end %v, want ~12", pipe)
	}
}

func TestPipelinePreservesOrder(t *testing.T) {
	eng := sim.NewEngine()
	done := eng.NewEvent()
	var trace []string
	// Uneven stage times stress reordering; trainer asserts order itself.
	RunPipelined(eng, "g", mkStages(20, 0.1, 0.5, 0.2, &trace), 2, done)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 20 {
		t.Fatalf("trained %d batches", len(trace))
	}
}

// TestQueueCapacityBoundsRunAhead: behind a fast sampler and a slow trainer
// the pipeline holds what Queues says its queues hold plus the one batch in
// each worker's hands (both queues full + three in flight = 7 for the plain
// pipeline at capacity 2) — the count strategy.Build reserves device memory
// from — and more instances do hold more.
func TestQueueCapacityBoundsRunAhead(t *testing.T) {
	const queueCap = 2
	if Queues(1, 1) != 2 || Queues(2, 2) != 4 || Queues(3, 2) != 8 || Queues(2, 1) != 3 || Queues(1, 3) != 6 {
		t.Fatalf("Queues: %d %d %d %d %d", Queues(1, 1), Queues(2, 2), Queues(3, 2), Queues(2, 1), Queues(1, 3))
	}
	prev := 0
	for _, sh := range shapes[:3] {
		eng := sim.NewEngine()
		done := eng.NewEvent()
		sampled, trained, maxAhead := 0, 0, 0
		s := Stages[int, int]{NumBatches: 60, Train: func(p *sim.Proc, step, v int) {
			p.Sleep(1)
			trained++
		}}
		for i := 0; i < sh.s; i++ {
			s.Samplers = append(s.Samplers, func(p *sim.Proc, step int) int {
				sampled++
				maxAhead = max(maxAhead, sampled-trained)
				p.Sleep(0.01)
				return step
			})
		}
		for j := 0; j < sh.l; j++ {
			s.Loaders = append(s.Loaders, func(p *sim.Proc, step, v int) int { return v })
		}
		RunPipelined(eng, "g", s, queueCap, done)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if bound := Queues(sh.s, sh.l)*queueCap + sh.s + sh.l + 1; maxAhead > bound || maxAhead <= prev {
			t.Fatalf("%dS/%dL: sampler ran %d steps ahead, want in (%d, %d]", sh.s, sh.l, maxAhead, prev, bound)
		}
		prev = maxAhead
	}
}

func TestCoordinatorUncoordinatedDeadlocks(t *testing.T) {
	// Figure 8: GPU 0 launches worker A then B; GPU 1 launches B then A.
	// Each collective body waits for its peer on the other GPU.
	eng := sim.NewEngine()
	c := NewCoordinator(eng, 2, false, 1)
	barA := eng.NewBarrier(2)
	barB := eng.NewBarrier(2)
	launch := func(gpu int, first, second int, firstBar, secondBar *sim.Barrier) {
		eng.Go("gpu", func(p *sim.Proc) {
			communicate(c, p, gpu, first, func(p *sim.Proc) { firstBar.Arrive(p) })
		})
		eng.Go("gpu", func(p *sim.Proc) {
			p.Sleep(0.1)
			communicate(c, p, gpu, second, func(p *sim.Proc) { secondBar.Arrive(p) })
		})
	}
	launch(0, 0, 1, barA, barB) // GPU 0: A first
	launch(1, 1, 0, barB, barA) // GPU 1: B first
	_, err := eng.Run()
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("expected deadlock, got %v", err)
	}
}

func TestCoordinatorCCCResolvesDeadlock(t *testing.T) {
	// The same launch pattern with CCC completes: the leader's order (A
	// then B) is imposed on GPU 1.
	eng := sim.NewEngine()
	c := NewCoordinator(eng, 2, true, 1)
	barA := eng.NewBarrier(2)
	barB := eng.NewBarrier(2)
	completed := 0
	comm := func(gpu, worker int, bar *sim.Barrier, delay sim.Time) {
		eng.Go("w", func(p *sim.Proc) {
			p.Sleep(delay)
			communicate(c, p, gpu, worker, func(p *sim.Proc) {
				bar.Arrive(p)
				p.Sleep(0.05)
			})
			completed++
		})
	}
	comm(0, 0, barA, 0)    // leader submits A first
	comm(0, 1, barB, 0.1)  // then B
	comm(1, 1, barB, 0)    // GPU 1 is ready with B first...
	comm(1, 0, barA, 0.02) // ...but must launch A first
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if completed != 4 {
		t.Fatalf("completed %d of 4 collectives", completed)
	}
}

func TestCCCKernelsStillOverlapAcrossGPUs(t *testing.T) {
	// CCC orders launches; it must not serialize independent collectives
	// into lockstep rounds longer than necessary. Two workers x 2 GPUs,
	// each collective 1s, same submission order: total should be ~2s
	// (B starts after A on each GPU), not 4s.
	eng := sim.NewEngine()
	c := NewCoordinator(eng, 2, true, 1)
	barA := eng.NewBarrier(2)
	barB := eng.NewBarrier(2)
	for gpu := 0; gpu < 2; gpu++ {
		gpu := gpu
		eng.Go("a", func(p *sim.Proc) {
			communicate(c, p, gpu, 0, func(p *sim.Proc) {
				barA.Arrive(p)
				p.Sleep(1)
			})
		})
		eng.Go("b", func(p *sim.Proc) {
			communicate(c, p, gpu, 1, func(p *sim.Proc) {
				barB.Arrive(p)
				p.Sleep(1)
			})
		})
	}
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end > 2.01 {
		t.Fatalf("CCC run took %v, want ~2", end)
	}
}

func TestCoordinatorManyRoundsNoDeadlock(t *testing.T) {
	// Stress: 4 GPUs x 3 workers x 10 rounds with jittered readiness.
	eng := sim.NewEngine()
	c := NewCoordinator(eng, 4, true, 1)
	bars := []*sim.Barrier{eng.NewBarrier(4), eng.NewBarrier(4), eng.NewBarrier(4)}
	total := 0
	for gpu := 0; gpu < 4; gpu++ {
		for w := 0; w < 3; w++ {
			gpu, w := gpu, w
			eng.Go("w", func(p *sim.Proc) {
				for round := 0; round < 10; round++ {
					// Jitter readiness differently per gpu/worker/round.
					p.Sleep(sim.Time(float64((gpu*7+w*13+round*3)%5) * 0.001))
					communicate(c, p, gpu, w, func(p *sim.Proc) {
						bars[w].Arrive(p)
						p.Sleep(0.002)
					})
				}
				total++
			})
		}
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 12 {
		t.Fatalf("finished %d of 12 workers", total)
	}
}

func TestCoordinatorString(t *testing.T) {
	eng := sim.NewEngine()
	if s := NewCoordinator(eng, 4, true, 1).String(); !strings.Contains(s, "CCC") {
		t.Errorf("String() = %q", s)
	}
	if s := NewCoordinator(eng, 4, false, 1).String(); !strings.Contains(s, "uncoordinated") {
		t.Errorf("String() = %q", s)
	}
}

func TestSequentialMatchesPipelineResults(t *testing.T) {
	// The two execution modes must produce identical trainer input
	// sequences (BSP equivalence); only timing differs.
	collect := func(pipelined bool) []int {
		eng := sim.NewEngine()
		done := eng.NewEvent()
		var got []int
		s := Stages[int, int]{
			NumBatches: 15,
			Samplers:   []func(*sim.Proc, int) int{func(p *sim.Proc, step int) int { p.Sleep(0.2); return step }},
			Loaders:    []func(*sim.Proc, int, int) int{func(p *sim.Proc, step, v int) int { p.Sleep(0.1); return v * 2 }},
			Train: func(p *sim.Proc, step, v int) {
				p.Sleep(0.3)
				got = append(got, v)
			},
		}
		if pipelined {
			RunPipelined(eng, "g", s, 2, done)
		} else {
			RunSequential(eng, "g", s, done)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := collect(true), collect(false)
	if len(a) != len(b) {
		t.Fatal("different batch counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: pipeline %d vs seq %d", i, a[i], b[i])
		}
	}
}

// samplers builds n sampler instances; instance i sleeps d(i), records the
// step in seen[i] and passes it on as the payload.
func samplers(n int, d func(i int) sim.Time, seen [][]int) (out []func(*sim.Proc, int) int) {
	for i := 0; i < n; i++ {
		out = append(out, func(p *sim.Proc, step int) int {
			p.Sleep(d(i))
			seen[i] = append(seen[i], step)
			return step
		})
	}
	return out
}

// loaders is samplers for the load stage; the payload goes on times mul.
func loaders(n int, d func(i int) sim.Time, mul int, seen [][]int) (out []func(*sim.Proc, int, int) int) {
	for i := 0; i < n; i++ {
		out = append(out, func(p *sim.Proc, step, v int) int {
			p.Sleep(d(i))
			seen[i] = append(seen[i], step)
			return v * mul
		})
	}
	return out
}

func TestMultiPipelineCompletesInOrder(t *testing.T) {
	eng := sim.NewEngine()
	done := eng.NewEvent()
	var got []int
	// Different sampler instances run at different speeds: the trainer must
	// still see every step, in order, with its own payload.
	s := Stages[int, int]{
		NumBatches: 23,
		Samplers:   samplers(3, func(i int) sim.Time { return sim.Time(0.1 * float64(i+1)) }, make([][]int, 3)),
		Loaders:    loaders(2, func(int) sim.Time { return 0.02 }, 100, make([][]int, 2)),
		Train: func(p *sim.Proc, step, v int) {
			if v != step*100 {
				t.Errorf("step %d payload %v", step, v)
			}
			p.Sleep(0.05)
			got = append(got, step)
		},
	}
	RunPipelined(eng, "g", s, 2, done)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done.Fired() {
		t.Fatal("did not complete")
	}
	if len(got) != 23 {
		t.Fatalf("trained %d steps", len(got))
	}
	for i, s := range got {
		if s != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestMultiPipelineLoaderInstanceOrdering(t *testing.T) {
	// Loader instance j must see steps j, j+L, j+2L... strictly in order.
	eng := sim.NewEngine()
	done := eng.NewEvent()
	const L = 3
	seen := make([][]int, L)
	s := Stages[int, int]{
		NumBatches: 17,
		Samplers:   samplers(1, func(int) sim.Time { return 0.01 }, make([][]int, 1)),
		Loaders:    loaders(L, func(int) sim.Time { return 0 }, 1, seen),
		Train:      func(p *sim.Proc, step, v int) {},
	}
	RunPipelined(eng, "g", s, 2, done)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < L; j++ {
		for i, s := range seen[j] {
			if s != j+i*L {
				t.Fatalf("loader %d saw %v", j, seen[j])
			}
		}
	}
}

func TestMultiPipelinePanicsWithoutWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty worker set")
		}
	}()
	RunPipelined(sim.NewEngine(), "g", Stages[int, int]{NumBatches: 1}, 2, nil)
}

var shapes = []struct{ s, l int }{{1, 1}, {2, 2}, {3, 2}, {2, 1}, {1, 2}}

// TestFirstBatchResidueClasses: replaying the tail of an epoch, pipelined or
// sequential, the trainer sees exactly [FirstBatch, NumBatches) in order and
// every instance only the steps of its own residue class, ascending.
func TestFirstBatchResidueClasses(t *testing.T) {
	const batches = 19
	for _, sh := range shapes[:3] {
		for _, first := range []int{0, 1, 5} {
			for _, pipelined := range []bool{true, false} {
				eng := sim.NewEngine()
				done := eng.NewEvent()
				sSeen, lSeen := make([][]int, sh.s), make([][]int, sh.l)
				var trained []int
				s := Stages[int, int]{
					NumBatches: batches, FirstBatch: first,
					Samplers: samplers(sh.s, func(i int) sim.Time { return sim.Time(0.03 * float64(i+1)) }, sSeen),
					Loaders:  loaders(sh.l, func(i int) sim.Time { return sim.Time(0.05 * float64(sh.l-i)) }, 1, lSeen),
					Train: func(p *sim.Proc, step, v int) {
						p.Sleep(0.04)
						trained = append(trained, v)
					},
				}
				if pipelined {
					RunPipelined(eng, "g", s, 2, done)
				} else {
					RunSequential(eng, "g", s, done)
				}
				if _, err := eng.Run(); err != nil || !done.Fired() {
					t.Fatalf("%dS/%dL from %d pipelined=%v: err %v, done %v", sh.s, sh.l, first, pipelined, err, done.Fired())
				}
				if len(trained) != batches-first {
					t.Fatalf("%dS/%dL from %d: trained %v", sh.s, sh.l, first, trained)
				}
				for k, step := range trained {
					if step != first+k {
						t.Fatalf("%dS/%dL from %d: trained %v", sh.s, sh.l, first, trained)
					}
				}
				for _, side := range [][][]int{sSeen, lSeen} {
					total := 0
					for i, steps := range side {
						total += len(steps)
						for k, step := range steps {
							if step%len(side) != i || step < first || (k > 0 && step <= steps[k-1]) {
								t.Fatalf("%dS/%dL from %d: instance %d of %d saw %v", sh.s, sh.l, first, i, len(side), steps)
							}
						}
					}
					if total != batches-first {
						t.Fatalf("%dS/%dL from %d: instances ran %d steps, want %d", sh.s, sh.l, first, total, batches-first)
					}
				}
			}
		}
	}
}

// jitterRun is the paper's Figure 8 hazard one level up: 4 GPUs whose every
// stage is a jittered delay, one CCC-gated collective of the instance's own
// peer group, and a per-GPU jittered tail after it (what lets one GPU's
// worker get a step ahead of its peer on another GPU), joined by capacity-2
// queues over 24 steps.
func jitterRun(seed uint64, nS, nL int) error {
	const gpus, steps = 4, 24
	eng := sim.NewEngine()
	c := NewCoordinator(eng, gpus, true, 2)
	bars := make([]*sim.Barrier, nS+nL+1)
	for w := range bars {
		bars[w] = eng.NewBarrier(gpus)
	}
	for g := 0; g < gpus; g++ {
		stage := func(worker int) func(p *sim.Proc, step int) {
			return func(p *sim.Proc, step int) {
				jitter := func(k uint64) sim.Time {
					return sim.Time(rng.Mix(seed, uint64(g), uint64(worker), uint64(step), k)%1000) * 1e-5
				}
				p.Sleep(jitter(0))
				communicate(c, p, g, worker, func(p *sim.Proc) { bars[worker].Arrive(p) })
				p.Sleep(jitter(1))
			}
		}
		s := Stages[int, int]{NumBatches: steps}
		for i := 0; i < nS; i++ {
			run := stage(i)
			s.Samplers = append(s.Samplers, func(p *sim.Proc, step int) int { run(p, step); return step })
		}
		for j := 0; j < nL; j++ {
			run := stage(nS + j)
			s.Loaders = append(s.Loaders, func(p *sim.Proc, step, v int) int { run(p, step); return v })
		}
		run := stage(nS + nL)
		s.Train = func(p *sim.Proc, step, v int) { run(p, step) }
		RunPipelined(eng, fmt.Sprintf("gpu%d", g), s, 2, eng.NewEvent())
	}
	_, err := eng.Run()
	return err
}

// TestJitterSweepNoDeadlock: no seed deadlocks at any worker shape. With
// queues shared between instances (the runner this one replaced) the same
// sweep deadlocked on most multi-instance seeds; see the package comment.
func TestJitterSweepNoDeadlock(t *testing.T) {
	for _, sh := range shapes {
		for seed := uint64(0); seed < 200; seed++ {
			if err := jitterRun(seed, sh.s, sh.l); err != nil {
				t.Fatalf("%dS/%dL seed %d: %v", sh.s, sh.l, seed, err)
			}
		}
	}
}

// communicate runs body as worker workerID's communication kernel on GPU gpu,
// bracketed by Enter/Exit exactly as a gated collective is: under CCC the
// kernel launches in leader order; without CCC it launches immediately on
// resource availability, reproducing the hazard.
func communicate(c *Coordinator, p *sim.Proc, gpu, workerID int, body func(*sim.Proc)) {
	c.Enter(p, gpu, workerID)
	body(p)
	c.Exit(gpu)
}
