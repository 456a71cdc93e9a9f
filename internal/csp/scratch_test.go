package csp

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/sim"
)

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// runRounds makes every listed rank sample its seed set `rounds` times in one
// engine run and returns each rank's last batch.
func runRounds(t *testing.T, tw *world, w *World, ranks []int, rounds int,
	fn func(p *sim.Proc, w *World, rank, round int) *sample.MiniBatch) []*sample.MiniBatch {
	t.Helper()
	got := make([]*sample.MiniBatch, len(tw.m.GPUs))
	for _, r := range ranks {
		tw.m.Eng.Go(fmt.Sprintf("sampler%d", r), func(p *sim.Proc) {
			for round := 0; round < rounds; round++ {
				got[r] = fn(p, w, r, round)
			}
		})
	}
	if _, err := tw.m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSampleRoundSteadyStateAllocs: once the round workspace has seen a batch
// of the largest size, what a batch allocates is a small constant per layer —
// the block's arrays, the all-to-alls' tables, the draw ticket — and does not
// depend on how many tasks the batch has: a 4x larger seed set allocates the
// same number of objects. (With a fresh buffer per task list, reply and
// cursor table it was several thousand and grew with the batch.)
func TestSampleRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	const nGPU, layers = 4, 3
	tw := buildWorld(t, nGPU, false)
	cfg := sample.Config{Fanout: []int{5, 3, 2}}
	ranks := []int{0, 1, 2, 3}
	// perBatch is the allocation count of one collective batch (all ranks):
	// an engine run of two batches minus a run of one, so the engine's own
	// per-run cost drops out.
	perBatch := func(seedsPerRank int) float64 {
		run := func(rounds int) func() {
			return func() {
				runRounds(t, tw, tw.w, ranks, rounds, func(p *sim.Proc, w *World, r, _ int) *sample.MiniBatch {
					return w.SampleBatch(p, r, tw.seeds[r][:seedsPerRank], cfg, tw.bseeds[r])
				})
			}
		}
		return testing.AllocsPerRun(5, run(2)) - testing.AllocsPerRun(5, run(1))
	}
	perBatch(64) // warm-up: AllocsPerRun itself runs the function once more
	large, small := perBatch(64), perBatch(16)
	if large != small {
		t.Errorf("a batch of 64 seeds per rank allocates %v objects, one of 16 allocates %v: not independent of the batch", large, small)
	}
	if limit := float64(nGPU * (layers*16 + 12)); large > limit {
		t.Errorf("a steady-state batch allocates %v objects on %d ranks x %d layers, want <= %v", large, nGPU, layers, limit)
	}
}

// TestScratchReuseInvisible: the workspace carries nothing from one batch to
// the next. Every mode samples consecutive, different batches on one world and
// each must equal the reference sampler down to nil-ness (reflect.DeepEqual,
// the comparison the benchmark's own check uses). The released modes check
// each batch as it comes back and release it, so the next one is rebuilt in
// its arrays; their windows shrink and grow past every earlier size, and the
// seedless rank samples, passes no seeds (its Src must come back nil), then
// samples again.
func TestScratchReuseInvisible(t *testing.T) {
	const nGPU = 4
	all := []int{0, 1, 2, 3}
	type mode struct {
		name     string
		cfg      sample.Config
		biased   bool
		parallel int
		prepare  func(tw *world) (ranks []int)
		noSeeds  int // rank that passes no seeds, -1 for none
		shared   bool
		release  bool
		pull     bool
	}
	// released[k] is the seed window of a released mode's round k; the
	// seedless rank passes none in round emptyRound.
	released := [][2]int{{24, 40}, {0, 64}, {60, 62}, {8, 56}, {0, 64}}
	const emptyRound = 3
	modes := []mode{
		{name: "node-wise", cfg: sample.Config{Fanout: []int{5, 3, 2}}, noSeeds: -1},
		{name: "biased", cfg: sample.Config{Fanout: []int{6, 4}, Biased: true}, biased: true, noSeeds: -1},
		{name: "layer-wise with replacement", cfg: sample.Config{Fanout: []int{40, 40}, LayerWise: true, WithReplacement: true}, noSeeds: -1},
		{name: "layer-wise without replacement", cfg: sample.Config{Fanout: []int{40, 40}, LayerWise: true}, noSeeds: -1},
		{name: "a rank without seeds", cfg: sample.Config{Fanout: []int{5, 3}}, noSeeds: 2},
		{name: "parallel draws", cfg: sample.Config{Fanout: []int{5, 3, 2}}, parallel: 4, noSeeds: -1},
		{name: "degraded", cfg: sample.Config{Fanout: []int{5, 3, 2}}, noSeeds: -1, shared: true, parallel: 4,
			prepare: func(tw *world) []int {
				view := fault.NewView(nGPU)
				tw.w.SetView(view)
				view.Kill(1)
				return []int{0, 2, 3}
			}},
		{name: "released", cfg: sample.Config{Fanout: []int{5, 3, 2}}, parallel: 4, noSeeds: 2, release: true},
		{name: "released biased layer-wise", cfg: sample.Config{Fanout: []int{40, 40}, LayerWise: true, Biased: true},
			biased: true, noSeeds: 2, release: true},
		{name: "released data pull", cfg: sample.Config{Fanout: []int{5, 3}}, noSeeds: 2, release: true, pull: true},
	}
	for _, md := range modes {
		t.Run(md.name, func(t *testing.T) {
			tw := buildWorld(t, nGPU, md.biased)
			if md.parallel > 0 {
				tw.m.Eng.SetParallelism(md.parallel)
			}
			ranks := all
			if md.prepare != nil {
				ranks = md.prepare(tw)
			}
			// Round k samples a window of the rank's seeds under its own
			// batch seed, so consecutive batches differ in size and content.
			rounds := 3
			seedless := func(r, round int) bool { return r == md.noSeeds }
			if md.release {
				rounds = len(released)
				seedless = func(r, round int) bool { return r == md.noSeeds && round == emptyRound }
			}
			seedsOf := func(r, round int) []graph.NodeID {
				if seedless(r, round) {
					return nil
				}
				if md.release {
					return tw.seeds[r][released[round][0]:released[round][1]]
				}
				return tw.seeds[r][round*8 : 64-round*16]
			}
			bseed := func(r, round int) uint64 {
				if md.shared {
					return uint64(1000 + round)
				}
				return tw.bseeds[r] + uint64(round)
			}
			got := make([][]*sample.MiniBatch, rounds)
			for round := range got {
				got[round] = make([]*sample.MiniBatch, nGPU)
			}
			// check runs inside the sampler processes in the released modes,
			// so it reports with Errorf.
			check := func(r, round int, mb *sample.MiniBatch) {
				want := sample.Reference(tw.g, seedsOf(r, round), md.cfg, bseed(r, round))
				if !reflect.DeepEqual(mb.Blocks, want.Blocks) {
					t.Errorf("round %d rank %d: blocks differ from the reference (%v)", round, r, sameBatch(mb, want))
					return
				}
				if !seedless(r, round) {
					return
				}
				for _, b := range mb.Blocks {
					if b.Src != nil || b.InputNodes == nil || len(b.InputNodes) != 0 {
						t.Errorf("round %d seedless rank %d: Src %v (want nil), InputNodes %v (want empty, non-nil)", round, r, b.Src, b.InputNodes)
						return
					}
				}
			}
			runRounds(t, tw, tw.w, ranks, rounds, func(p *sim.Proc, w *World, r, round int) *sample.MiniBatch {
				var mb *sample.MiniBatch
				switch {
				case md.pull:
					mb = w.PullDataSampleBatch(p, r, seedsOf(r, round), md.cfg, bseed(r, round))
				case md.shared:
					w.Comm.Begin(r)
					mb = w.SampleBatchShared(p, r, seedsOf(r, round), md.cfg, bseed(r, round))
				default:
					mb = w.SampleBatch(p, r, seedsOf(r, round), md.cfg, bseed(r, round))
				}
				got[round][r] = mb
				if md.release {
					check(r, round, mb)
					if round > 0 && mb != got[round-1][r] {
						t.Errorf("round %d rank %d: not built in the batch released the round before", round, r)
					}
					w.Release(r, mb)
				}
				return mb
			})
			if md.release {
				return
			}
			for round := 0; round < rounds; round++ {
				for _, r := range ranks {
					check(r, round, got[round][r])
				}
			}
		})
	}
}

// TestCloneOwnsItsScratch: a cloned world interleaved with its parent on the
// same ranks (as multi-instance sampler workers run) shares no workspace:
// both keep matching the reference batch after batch.
func TestCloneOwnsItsScratch(t *testing.T) {
	const nGPU, rounds = 4, 3
	tw := buildWorld(t, nGPU, false)
	tw.m.Eng.SetParallelism(4)
	cfg := sample.Config{Fanout: []int{5, 3, 2}}
	worlds := []*World{tw.w, tw.w.Clone()}
	got := make([][][]*sample.MiniBatch, len(worlds))
	bseed := func(wi, r, round int) uint64 { return tw.bseeds[r] + uint64(10*wi+round) }
	for wi, w := range worlds {
		got[wi] = make([][]*sample.MiniBatch, rounds)
		for round := range got[wi] {
			got[wi][round] = make([]*sample.MiniBatch, nGPU)
		}
		for r := 0; r < nGPU; r++ {
			tw.m.Eng.Go(fmt.Sprintf("sampler%d.%d", wi, r), func(p *sim.Proc) {
				for round := 0; round < rounds; round++ {
					got[wi][round][r] = w.SampleBatch(p, r, tw.seeds[r][wi*8:], cfg, bseed(wi, r, round))
				}
			})
		}
	}
	if _, err := tw.m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for wi := range worlds {
		for round := 0; round < rounds; round++ {
			for r := 0; r < nGPU; r++ {
				want := sample.Reference(tw.g, tw.seeds[r][wi*8:], cfg, bseed(wi, r, round))
				if !reflect.DeepEqual(got[wi][round][r].Blocks, want.Blocks) {
					t.Fatalf("world %d round %d rank %d: blocks differ from the reference", wi, round, r)
				}
			}
		}
	}
}

// windowStore is a HostStore whose demand touch — which sampleLayer calls
// between submitting the draw unit and joining it — runs a test hook on the
// calling process.
type windowStore struct{ touch func(p *sim.Proc) }

func (s windowStore) TouchTopology(p *sim.Proc, _ []graph.NodeID) { s.touch(p) }
func (windowStore) PrefetchTopology([]graph.NodeID)               {}

// TestKillInsideSampleWindow: a rank is killed in a sleep between the submit
// and the join of its draw unit, at parallelism 4, while the survivors sit at
// different points of the same round: two are parked in the reshuffle and
// start their retry at once, the third is still asleep inside its own sample
// window, its unit reading the task buffers the other two posted. Every
// unwinding frame joins its unit and a retry never writes the task buffers a
// voided attempt posted, so the run is clean under -race and the survivors'
// following rounds, now in degraded mode, still equal the reference.
func TestKillInsideSampleWindow(t *testing.T) {
	const nGPU, victim, sleeper, rounds = 4, 2, 3, 3
	tw := buildWorld(t, nGPU, false)
	tw.m.Eng.SetParallelism(4)
	view := fault.NewView(nGPU)
	tw.w.SetView(view)
	// Every row host-resident: each round's sample window touches the store.
	for _, ps := range tw.w.Patches {
		ps.OnHost = make([]bool, ps.Adj.NumNodes()) // nil while the patch fits
		for i := range ps.OnHost {
			ps.OnHost[i] = true
		}
	}
	procs := make([]*sim.Proc, nGPU)
	// The hooks act in the second layer's window: the first layer's frontier
	// is each rank's own seeds, so only from the second on do task buffers
	// cross ranks.
	touches := make(map[*sim.Proc]int)
	tw.w.SetHostStore(windowStore{touch: func(p *sim.Proc) {
		if touches[p]++; touches[p] != 2 {
			return
		}
		switch p {
		case procs[victim]:
			p.Sleep(1e-7) // every rank has left the shuffle and is in its window
			view.Kill(victim)
			tw.m.Eng.Kill(p)
			p.Sleep(1e-6) // unwinds here, the draw unit still in flight
		case procs[sleeper]:
			// What rank 0 posted to this rank is what its draw unit reads.
			posted := tw.w.scratch[0].outTasks[sleeper]
			before := slices.Clone(posted)
			p.Sleep(1e-3) // outlasts the kill and the other survivors' retry
			// Rank 0 now waits for this rank in its retry's first shuffle.
			if retry := tw.w.scratch[0].outTasks[sleeper]; len(before) == 0 || len(retry) == 0 {
				t.Errorf("rank 0 posted %d tasks to rank %d before the kill and %d in its retry, want both non-empty", len(before), sleeper, len(retry))
			}
			if !slices.Equal(posted, before) {
				t.Errorf("rank 0's retry wrote the task buffer rank %d's draw unit was still reading", sleeper)
			}
		}
	}})
	cfg := sample.Config{Fanout: []int{5, 3, 2}}
	// Half of rank 0's seeds are the sleeper's nodes, so rank 0 posts tasks to
	// it in the first layer too — the one its retry reaches.
	tw.seeds[0] = slices.Concat(tw.seeds[0][:32], tw.seeds[sleeper][32:])
	got := make([][]*sample.MiniBatch, rounds)
	for round := range got {
		got[round] = make([]*sample.MiniBatch, nGPU)
	}
	attempts := make([]int, nGPU)
	for r := 0; r < nGPU; r++ {
		procs[r] = tw.m.Eng.Go(fmt.Sprintf("sampler%d", r), func(p *sim.Proc) {
			for round := 0; round < rounds; round++ {
				for done := false; !done; {
					func() {
						defer func() {
							if x := recover(); x != nil {
								if _, ok := x.(fault.Aborted); !ok {
									panic(x)
								}
								p.Sleep(1e-6)
							}
						}()
						attempts[r]++
						tw.w.Comm.Begin(r)
						got[round][r] = tw.w.SampleBatchShared(p, r, tw.seeds[r], cfg, uint64(500+round))
						done = true
					}()
				}
			}
		})
	}
	if _, err := tw.m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if view.Alive(victim) {
		t.Fatal("the victim was never killed: the sample window did not touch the store")
	}
	for r := 0; r < nGPU; r++ {
		if r == victim {
			continue
		}
		if attempts[r] != rounds+1 {
			t.Errorf("rank %d made %d attempts at %d rounds, want one retry", r, attempts[r], rounds)
		}
		for round := 0; round < rounds; round++ {
			want := sample.Reference(tw.g, tw.seeds[r], cfg, uint64(500+round))
			if !reflect.DeepEqual(got[round][r].Blocks, want.Blocks) {
				t.Fatalf("round %d rank %d: blocks differ from the reference", round, r)
			}
		}
	}
}

// TestKilledRoundLeavesNoUnit: every rank is killed inside its sample window
// with its draw unit in flight, the run ends, and fresh processes sample on
// the same world. No unit of the killed round may still be writing the reply
// buffers the new round's units fill: sampleLayer joins its unit on the way
// out of the frame, however it is left. Clean under -race only because of it.
func TestKilledRoundLeavesNoUnit(t *testing.T) {
	const nGPU = 4
	tw := buildWorld(t, nGPU, false)
	tw.m.Eng.SetParallelism(4)
	for _, ps := range tw.w.Patches {
		ps.OnHost = make([]bool, ps.Adj.NumNodes()) // nil while the patch fits
		for i := range ps.OnHost {
			ps.OnHost[i] = true
		}
	}
	cfg := sample.Config{Fanout: []int{5, 3, 2}}
	touches := make(map[*sim.Proc]int)
	tw.w.SetHostStore(windowStore{touch: func(p *sim.Proc) {
		if touches[p]++; touches[p] == 2 {
			tw.m.Eng.Kill(p)
			p.Sleep(1e-6)
		}
	}})
	sampleAll := func() []*sample.MiniBatch {
		return runRounds(t, tw, tw.w, []int{0, 1, 2, 3}, 1, func(p *sim.Proc, w *World, r, _ int) *sample.MiniBatch {
			return w.SampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
		})
	}
	for r, mb := range sampleAll() {
		if mb != nil {
			t.Fatalf("rank %d finished its batch: the kill never landed", r)
		}
	}
	tw.w.SetHostStore(windowStore{touch: func(*sim.Proc) {}})
	for r, mb := range sampleAll() {
		want := sample.Reference(tw.g, tw.seeds[r], cfg, tw.bseeds[r])
		if !reflect.DeepEqual(mb.Blocks, want.Blocks) {
			t.Fatalf("rank %d: blocks after the killed round differ from the reference", r)
		}
	}
}

// TestOwnerMatchesScan: the boundary-counting Owner agrees with the
// first-fitting-range scan it replaced on every id around every boundary, and
// rejects ids on both sides of the graph with the same message.
func TestOwnerMatchesScan(t *testing.T) {
	scan := func(offsets []int64, v graph.NodeID) int {
		for g := 0; g < len(offsets)-1; g++ {
			if int64(v) < offsets[g+1] {
				return g
			}
		}
		return -1
	}
	for _, offsets := range [][]int64{
		{0, 10}, {0, 1, 2}, {0, 7, 7, 19}, {0, 3, 9, 27, 81, 243, 729, 2187, 6561},
	} {
		w := &World{Offsets: offsets}
		last := offsets[len(offsets)-1]
		for _, b := range offsets {
			for v := b - 1; v <= b+1; v++ {
				if v < 0 || v >= last {
					continue
				}
				if got, want := w.Owner(graph.NodeID(v)), scan(offsets, graph.NodeID(v)); got != want {
					t.Errorf("offsets %v: Owner(%d) = %d, scan gives %d", offsets, v, got, want)
				}
			}
		}
		for _, v := range []graph.NodeID{-1, graph.NodeID(last), graph.NodeID(last + 5)} {
			func() {
				defer func() {
					if got, want := recover(), fmt.Sprintf("csp: node %d out of range", v); got != want {
						t.Errorf("offsets %v: Owner(%d) panicked with %v, want %q", offsets, v, got, want)
					}
				}()
				w.Owner(v)
			}()
		}
	}
}

// TestEmptyBatchKeepsSrcArrays: a rank whose batch comes up empty (its share
// of an epoch ran out) must return blocks with a nil Src, as the reference
// sampler does, yet keep the arrays: the rank's next batch with samples
// draws into the very Src arrays its batch before the empty one used,
// instead of allocating them again.
func TestEmptyBatchKeepsSrcArrays(t *testing.T) {
	const nGPU, empty = 4, 2
	tw := buildWorld(t, nGPU, false)
	cfg := sample.Config{Fanout: []int{5, 3, 2}}
	var first []*graph.NodeID // rank empty's Src arrays in round 0, input-most first
	runRounds(t, tw, tw.w, []int{0, 1, 2, 3}, 3, func(p *sim.Proc, w *World, r, round int) *sample.MiniBatch {
		seeds := tw.seeds[r][:32]
		if r == empty && round == 1 {
			seeds = nil
		}
		mb := w.SampleBatch(p, r, seeds, cfg, tw.bseeds[r]+uint64(round))
		if r == empty {
			if want := sample.Reference(tw.g, seeds, cfg, tw.bseeds[r]+uint64(round)); !reflect.DeepEqual(mb.Blocks, want.Blocks) {
				t.Errorf("round %d: blocks differ from the reference (%v)", round, sameBatch(mb, want))
			}
			for l, b := range mb.Blocks {
				switch round {
				case 0:
					first = append(first, &b.Src[:1][0])
				case 2:
					if &b.Src[:1][0] != first[l] {
						t.Errorf("block %d: the batch after an empty one allocated a new Src array", l)
					}
				}
			}
		}
		w.Release(r, mb)
		return mb
	})
}
