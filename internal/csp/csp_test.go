package csp

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/sim"
)

type world struct {
	m      *hw.Machine
	w      *World
	g      *graph.CSR // layout-ordered full graph (the reference oracle)
	ren    *partition.Renumbering
	seeds  [][]graph.NodeID // per-rank co-partitioned seeds
	bseeds []uint64
}

func buildWorld(t testing.TB, nGPU int, biased bool) *world {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "t", Nodes: 3000, AvgDegree: 14, FeatDim: 4, NumClasses: 6, Seed: 21,
	})
	if biased {
		d.AttachUniformWeights(77)
	}
	res := partition.Metis(d.G, nGPU, 5)
	ren := partition.BuildRenumbering(res)
	gl := ren.ApplyToGraph(d.G)
	m := hw.NewMachine(nGPU, hw.V100(), hw.XeonE5())
	w, err := NewWorld(m, gl, ren.Offsets)
	if err != nil {
		t.Fatal(err)
	}
	train := ren.ApplyToIDs(d.TrainIdx)
	out := &world{m: m, w: w, g: gl, ren: ren}
	for r := 0; r < nGPU; r++ {
		owned := ren.SortOwned(train, r)
		if len(owned) > 64 {
			owned = owned[:64]
		}
		out.seeds = append(out.seeds, owned)
		out.bseeds = append(out.bseeds, rng.Mix(99, uint64(r)))
	}
	return out
}

func sameBatch(a, b *sample.MiniBatch) error {
	if len(a.Blocks) != len(b.Blocks) {
		return fmt.Errorf("block counts %d vs %d", len(a.Blocks), len(b.Blocks))
	}
	for l := range a.Blocks {
		ba, bb := a.Blocks[l], b.Blocks[l]
		if len(ba.Dst) != len(bb.Dst) || len(ba.Src) != len(bb.Src) {
			return fmt.Errorf("block %d sizes differ: dst %d/%d src %d/%d",
				l, len(ba.Dst), len(bb.Dst), len(ba.Src), len(bb.Src))
		}
		for i := range ba.Dst {
			if ba.Dst[i] != bb.Dst[i] {
				return fmt.Errorf("block %d dst[%d]: %d vs %d", l, i, ba.Dst[i], bb.Dst[i])
			}
		}
		for i := range ba.Src {
			if ba.Src[i] != bb.Src[i] {
				return fmt.Errorf("block %d src[%d]: %d vs %d", l, i, ba.Src[i], bb.Src[i])
			}
		}
		for i := range ba.SrcPtr {
			if ba.SrcPtr[i] != bb.SrcPtr[i] {
				return fmt.Errorf("block %d srcptr[%d]", l, i)
			}
		}
	}
	return nil
}

func runCollective(t *testing.T, tw *world, fn func(p *sim.Proc, rank int) *sample.MiniBatch) []*sample.MiniBatch {
	t.Helper()
	n := len(tw.m.GPUs)
	got := make([]*sample.MiniBatch, n)
	for r := 0; r < n; r++ {
		r := r
		tw.m.Eng.Go(fmt.Sprintf("sampler%d", r), func(p *sim.Proc) {
			got[r] = fn(p, r)
		})
	}
	if _, err := tw.m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCSPMatchesReferenceNodeWise(t *testing.T) {
	for _, nGPU := range []int{1, 2, 4, 8} {
		tw := buildWorld(t, nGPU, false)
		cfg := sample.Config{Fanout: []int{5, 3, 2}}
		got := runCollective(t, tw, func(p *sim.Proc, r int) *sample.MiniBatch {
			return tw.w.SampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
		})
		for r := 0; r < nGPU; r++ {
			want := sample.Reference(tw.g, tw.seeds[r], cfg, tw.bseeds[r])
			if err := sameBatch(got[r], want); err != nil {
				t.Fatalf("nGPU=%d rank=%d: %v", nGPU, r, err)
			}
			if err := got[r].Validate(); err != nil {
				t.Fatalf("nGPU=%d rank=%d: %v", nGPU, r, err)
			}
		}
	}
}

func TestCSPMatchesReferenceBiased(t *testing.T) {
	tw := buildWorld(t, 4, true)
	cfg := sample.Config{Fanout: []int{6, 4}, Biased: true}
	got := runCollective(t, tw, func(p *sim.Proc, r int) *sample.MiniBatch {
		return tw.w.SampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
	})
	for r := 0; r < 4; r++ {
		want := sample.Reference(tw.g, tw.seeds[r], cfg, tw.bseeds[r])
		if err := sameBatch(got[r], want); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestCSPMatchesReferenceLayerWise(t *testing.T) {
	for _, withRepl := range []bool{true, false} {
		tw := buildWorld(t, 4, false)
		cfg := sample.Config{Fanout: []int{40, 40}, LayerWise: true, WithReplacement: withRepl}
		got := runCollective(t, tw, func(p *sim.Proc, r int) *sample.MiniBatch {
			return tw.w.SampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
		})
		for r := 0; r < 4; r++ {
			want := sample.Reference(tw.g, tw.seeds[r], cfg, tw.bseeds[r])
			if err := sameBatch(got[r], want); err != nil {
				t.Fatalf("withRepl=%v rank %d: %v", withRepl, r, err)
			}
		}
	}
}

func TestPullDataMatchesReference(t *testing.T) {
	tw := buildWorld(t, 4, true)
	cfg := sample.Config{Fanout: []int{5, 3}, Biased: true}
	got := runCollective(t, tw, func(p *sim.Proc, r int) *sample.MiniBatch {
		return tw.w.PullDataSampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
	})
	for r := 0; r < 4; r++ {
		want := sample.Reference(tw.g, tw.seeds[r], cfg, tw.bseeds[r])
		if err := sameBatch(got[r], want); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTaskPushBeatsDataPullOnVolume(t *testing.T) {
	// Figure 11's premise: CSP moves far fewer bytes than pulling
	// adjacency+weight lists for biased sampling.
	cfg := sample.Config{Fanout: []int{10, 10}, Biased: true}
	volume := func(pull bool) int64 {
		tw := buildWorld(t, 4, true)
		runCollective(t, tw, func(p *sim.Proc, r int) *sample.MiniBatch {
			if pull {
				return tw.w.PullDataSampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
			}
			return tw.w.SampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
		})
		return tw.m.Fabric.Counters.TotalWire(hw.TrafficSample)
	}
	push := volume(false)
	pull := volume(true)
	if push >= pull {
		t.Fatalf("task push volume %d not below data pull %d", push, pull)
	}
}

func TestCSPSingleGPUNoCommunication(t *testing.T) {
	tw := buildWorld(t, 1, false)
	cfg := sample.Config{Fanout: []int{5, 5}}
	runCollective(t, tw, func(p *sim.Proc, r int) *sample.MiniBatch {
		return tw.w.SampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
	})
	for class := hw.TrafficSample; class <= hw.TrafficOther; class++ {
		if w := tw.m.Fabric.Counters.TotalWire(class); w != 0 {
			t.Fatalf("single-GPU CSP moved %d %v wire bytes", w, class)
		}
	}
}

func TestCSPEmptySeedRankStillServes(t *testing.T) {
	tw := buildWorld(t, 4, false)
	cfg := sample.Config{Fanout: []int{5, 3}}
	// Rank 2 contributes no seeds but must participate.
	tw.seeds[2] = nil
	got := runCollective(t, tw, func(p *sim.Proc, r int) *sample.MiniBatch {
		return tw.w.SampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
	})
	if got[2].NumSampledEdges() != 0 {
		t.Fatal("empty-seed rank produced samples")
	}
	for _, r := range []int{0, 1, 3} {
		want := sample.Reference(tw.g, tw.seeds[r], cfg, tw.bseeds[r])
		if err := sameBatch(got[r], want); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestPatchesReserveDeviceMemory(t *testing.T) {
	tw := buildWorld(t, 4, false)
	for g, dev := range tw.m.GPUs {
		if dev.MemFree() == dev.Spec.MemBytes {
			t.Errorf("GPU %d reserved no memory for its patch", g)
		}
	}
	// A machine with tiny GPUs must fail to host the patches.
	spec := hw.V100()
	spec.MemBytes = 10
	m2 := hw.NewMachine(4, spec, hw.XeonE5())
	if _, err := NewWorld(m2, tw.g, tw.ren.Offsets); err == nil {
		t.Fatal("NewWorld fit a graph into 10-byte GPUs")
	}
}

func TestOwnerRangeCheck(t *testing.T) {
	tw := buildWorld(t, 4, false)
	for r := 0; r < 4; r++ {
		lo, hi := tw.ren.OwnedRange(r)
		if tw.w.Owner(lo) != r || tw.w.Owner(hi-1) != r {
			t.Fatalf("owner lookup wrong for rank %d", r)
		}
	}
}

func TestRandomWalkValidPaths(t *testing.T) {
	tw := buildWorld(t, 4, false)
	const length = 8
	paths := make([][][]graph.NodeID, 4)
	n := 4
	for r := 0; r < n; r++ {
		r := r
		tw.m.Eng.Go("walker", func(p *sim.Proc) {
			starts := tw.seeds[r][:8]
			paths[r] = tw.w.RandomWalk(p, r, starts, length, tw.bseeds[r])
		})
	}
	if _, err := tw.m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if len(paths[r]) != 8 {
			t.Fatalf("rank %d: %d paths", r, len(paths[r]))
		}
		for i, path := range paths[r] {
			if path[0] != tw.seeds[r][i] {
				t.Fatalf("path %d does not start at its seed", i)
			}
			if len(path) > length+1 {
				t.Fatalf("path %d too long: %d", i, len(path))
			}
			// Every consecutive pair is a real edge.
			for h := 1; h < len(path); h++ {
				found := false
				for _, u := range tw.g.Neighbors(path[h-1]) {
					if u == path[h] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("path %d hop %d not an edge: %d->%d", i, h, path[h-1], path[h])
				}
			}
		}
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	run := func() [][]graph.NodeID {
		tw := buildWorld(t, 2, false)
		out := make([][][]graph.NodeID, 2)
		for r := 0; r < 2; r++ {
			r := r
			tw.m.Eng.Go("walker", func(p *sim.Proc) {
				out[r] = tw.w.RandomWalk(p, r, tw.seeds[r][:4], 6, tw.bseeds[r])
			})
		}
		if _, err := tw.m.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("walk %d length differs", i)
		}
		for h := range a[i] {
			if a[i][h] != b[i][h] {
				t.Fatalf("walk %d hop %d differs", i, h)
			}
		}
	}
}

func TestCSPDeterministicVirtualTime(t *testing.T) {
	run := func() sim.Time {
		tw := buildWorld(t, 4, false)
		cfg := sample.Config{Fanout: []int{5, 3, 2}}
		for r := 0; r < 4; r++ {
			r := r
			tw.m.Eng.Go("s", func(p *sim.Proc) {
				tw.w.SampleBatch(p, r, tw.seeds[r], cfg, tw.bseeds[r])
			})
		}
		end, err := tw.m.Eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("virtual time not reproducible: %v vs %v", a, b)
	}
}

func TestRandomWalkBiasedFollowsWeights(t *testing.T) {
	// On a weighted graph, walks favour heavy edges: construct a 3-node
	// graph where node 0's neighbours are {1 (weight 9), 2 (weight 1)} and
	// check the first-hop distribution.
	g := graph.FromEdges(3,
		[]graph.NodeID{1, 2, 0, 0},
		[]graph.NodeID{0, 0, 1, 2})
	g.Weights = []float32{9, 1, 1, 1}
	m := hw.NewMachine(1, hw.V100(), hw.XeonE5())
	w, err := NewWorld(m, g, []int64{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[graph.NodeID]int{}
	m.Eng.Go("walker", func(p *sim.Proc) {
		starts := make([]graph.NodeID, 400)
		// Distinct batch seeds per walk round would need distinct start
		// nodes; instead run many walks from node 0 under different seeds.
		for round := 0; round < 50; round++ {
			for i := range starts {
				starts[i] = 0
			}
			paths := w.RandomWalk(p, 0, starts[:8], 1, rng.Mix(99, uint64(round)))
			for _, path := range paths {
				if len(path) > 1 {
					counts[path[1]]++
				}
			}
		}
	})
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	total := counts[1] + counts[2]
	if total == 0 {
		t.Fatal("no hops recorded")
	}
	frac := float64(counts[1]) / float64(total)
	if frac < 0.8 {
		t.Fatalf("heavy edge taken %.2f of the time, want ~0.9", frac)
	}
}

func TestSampleBatchSharedMatchesReference(t *testing.T) {
	// The serving path's shared-seed variant must produce exactly the
	// batches a single-address-space sampler seeded with the same shared
	// seed would: per rank, Reference(seeds[r], sharedSeed).
	tw := buildWorld(t, 4, false)
	cfg := sample.Config{Fanout: []int{6, 4}}
	shared := rng.Mix(4242, 1)
	got := runCollective(t, tw, func(p *sim.Proc, rank int) *sample.MiniBatch {
		return tw.w.SampleBatchShared(p, rank, tw.seeds[rank], cfg, shared)
	})
	for r := range got {
		want := sample.Reference(tw.g, tw.seeds[r], cfg, shared)
		if err := sameBatch(got[r], want); err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

func TestSampleBatchSharedEmptyRank(t *testing.T) {
	// Serving rounds routinely dispatch work to a subset of GPUs; idle
	// ranks pass empty seed slices but must still serve remote tasks.
	tw := buildWorld(t, 4, false)
	cfg := sample.Config{Fanout: []int{6, 4}}
	shared := rng.Mix(4242, 2)
	got := runCollective(t, tw, func(p *sim.Proc, rank int) *sample.MiniBatch {
		seeds := tw.seeds[rank]
		if rank != 1 {
			seeds = nil
		}
		return tw.w.SampleBatchShared(p, rank, seeds, cfg, shared)
	})
	want := sample.Reference(tw.g, tw.seeds[1], cfg, shared)
	if err := sameBatch(got[1], want); err != nil {
		t.Errorf("rank 1: %v", err)
	}
	for _, r := range []int{0, 2, 3} {
		if len(got[r].Seeds) != 0 {
			t.Errorf("idle rank %d produced seeds", r)
		}
	}
}
