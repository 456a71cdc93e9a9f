package partition

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// shuffleLists permutes every list of w in place, each weight moving with
// its neighbour.
func shuffleLists(w *workGraph, r *rng.RNG) {
	for v := 0; v < w.n; v++ {
		adj, ew := w.adj[w.indptr[v]:w.indptr[v+1]], w.ew[w.indptr[v]:w.indptr[v+1]]
		for i := len(adj) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			adj[i], adj[j] = adj[j], adj[i]
			ew[i], ew[j] = ew[j], ew[i]
		}
	}
}

// TestContractionListOrderFree: the work graph's lists are in no particular
// order, so nothing may depend on it. Coarsening a copy whose lists are
// shuffled — again at every level — must give the identical cmap and the same
// coarse graph up to list order, and the whole multilevel run the same Parts.
func TestContractionListOrderFree(t *testing.T) {
	graphs := adversarial()
	graphs["gen"] = gen.Generate(gen.Config{Name: "a", Nodes: 4000, AvgDegree: 16, FeatDim: 1, NumClasses: 8, Seed: 7}).G
	const k = 8
	for name, g := range graphs {
		w, s := buildWork(g)
		shuf := &workGraph{n: w.n, indptr: w.indptr, adj: slices.Clone(w.adj), ew: slices.Clone(w.ew), nw: w.nw, totalW: w.totalW}
		shuffler := rng.New(5)
		shuffleLists(shuf, shuffler)
		ss := newScratch(shuf.n, len(shuf.adj))

		a, b := w, shuf
		ra, rb := rng.New(1), rng.New(1)
		for depth := 0; a.n > 2; depth++ {
			cmapA, coarseA := a.coarsen(s, ra)
			cmapB, coarseB := b.coarsen(ss, rb)
			if !slices.Equal(cmapA, cmapB) {
				t.Fatalf("%s depth %d: cmap depends on list order", name, depth)
			}
			if err := sameWork(coarseB, coarseA); err != nil {
				t.Fatalf("%s depth %d: %v", name, depth, err)
			}
			if coarseA.n == a.n {
				break
			}
			shuffleLists(coarseB, shuffler)
			a, b = coarseA, coarseB
		}

		s.conn, ss.conn = make([]int64, w.n*k), make([]int64, w.n*k)
		if !slices.Equal(w.multilevel(k, s, rng.New(3)), shuf.multilevel(k, ss, rng.New(3))) {
			t.Errorf("%s: Parts depend on list order", name)
		}
	}

	// Node 0 weighs its two neighbours equally and lists the higher id first;
	// visited first, it must match the lower.
	tie := &workGraph{n: 3, indptr: []int64{0, 2, 3, 4}, adj: []int32{2, 1, 0, 0}, ew: []int64{5, 5, 5, 5}, nw: []int64{1, 1, 1}, totalW: 3}
	seed := uint64(0)
	for visitOrder(make([]int, 3), 3, rng.New(seed))[0] != 0 {
		seed++
	}
	if cmap, _ := tie.coarsen(newScratch(3, 4), rng.New(seed)); cmap[0] != cmap[1] || cmap[2] == cmap[0] {
		t.Errorf("tie: cmap %v, want node 0 matched to node 1", cmap)
	}
}
