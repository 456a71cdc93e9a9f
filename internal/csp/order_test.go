package csp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/sim"
)

// drawShape is what a rank's last draw unit saw: the tasks it drew, its
// in-patch bucket count (the patch span when the order is exact) and how many
// tasks fell in the out-of-patch bucket.
type drawShape struct{ tasks, buckets, outside int }

func lastDrawShape(w *World, rank int) drawShape {
	s := w.scratch[rank]
	sh := drawShape{tasks: len(s.order), buckets: len(s.start) - 2}
	// After the placement pass start[b] is where bucket b ends, so the
	// out-of-patch bucket begins where the last in-patch one ends.
	begin := 0
	if sh.buckets > 0 {
		begin = int(s.start[sh.buckets-1])
	}
	sh.outside = sh.tasks - begin
	return sh
}

// TestDrawOrderInvisible: owners draw their received tasks in adjacency
// order, yet every batch equals the reference sampler by reflect.DeepEqual,
// in each regime of the counting pass — a frontier larger than a patch (one
// node per bucket, exact order), a one-seed batch (few tasks, many nodes per
// bucket) and degraded mode (a dead GPU's tasks in the out-of-patch bucket) —
// for uniform and biased draws, inline and on worker threads. Each regime is
// checked to have been reached.
func TestDrawOrderInvisible(t *testing.T) {
	const nGPU = 4
	regimes := []struct {
		name     string
		seeds    int // per rank
		degraded bool
		reached  func(sh drawShape, span int) bool
	}{
		{"frontier wider than a patch", 64, false, func(sh drawShape, span int) bool { return sh.buckets == span }},
		{"one seed", 1, false, func(sh drawShape, span int) bool { return sh.tasks > 0 && 4*sh.buckets <= span }},
		{"degraded", 64, true, func(sh drawShape, span int) bool { return sh.outside > 0 }},
	}
	for _, rg := range regimes {
		for _, biased := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				draws := "uniform"
				if biased {
					draws = "biased"
				}
				t.Run(fmt.Sprintf("%s/%s/parallel=%d", rg.name, draws, par), func(t *testing.T) {
					tw := buildWorld(t, nGPU, biased)
					tw.m.Eng.SetParallelism(par)
					cfg := sample.Config{Fanout: []int{10, 5, 3}, Biased: biased}
					ranks := []int{0, 1, 2, 3}
					if rg.degraded {
						view := fault.NewView(nGPU)
						tw.w.SetView(view)
						view.Kill(1)
						ranks = []int{0, 2, 3}
					}
					seedsOf := func(r int) []graph.NodeID { return tw.seeds[r][:rg.seeds] }
					const shared = 4242
					got := runRounds(t, tw, tw.w, ranks, 1, func(p *sim.Proc, w *World, r, _ int) *sample.MiniBatch {
						if rg.degraded {
							w.Comm.Begin(r)
							return w.SampleBatchShared(p, r, seedsOf(r), cfg, shared)
						}
						return w.SampleBatch(p, r, seedsOf(r), cfg, tw.bseeds[r])
					})
					reached := false
					for _, r := range ranks {
						bseed := tw.bseeds[r]
						if rg.degraded {
							bseed = shared
						}
						want := sample.Reference(tw.g, seedsOf(r), cfg, bseed)
						if !reflect.DeepEqual(got[r].Blocks, want.Blocks) {
							t.Fatalf("rank %d: blocks differ from the reference (%v)", r, sameBatch(got[r], want))
						}
						ps := tw.w.Patches[r]
						if rg.reached(lastDrawShape(tw.w, r), int(ps.Hi-ps.Lo)) {
							reached = true
						}
					}
					if !reached {
						for _, r := range ranks {
							t.Logf("rank %d: %+v", r, lastDrawShape(tw.w, r))
						}
						t.Fatal("no rank's last draw was in the regime under test")
					}
				})
			}
		}
	}
}
