package partition

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// checkSymmetric verifies what the transpose-as-sort and refine's connectivity
// table rest on: every (u,v,wt) has its (v,u,wt), every list is strictly
// ascending (so there is no multi-edge), and no node lists itself.
func checkSymmetric(w *workGraph) error {
	if len(w.indptr) != w.n+1 || len(w.nw) != w.n || len(w.adj) != len(w.ew) || w.indptr[w.n] != int64(len(w.adj)) {
		return fmt.Errorf("shape: n=%d indptr=%d nw=%d adj=%d ew=%d", w.n, len(w.indptr), len(w.nw), len(w.adj), len(w.ew))
	}
	weight := func(u, v int32) int64 {
		list := w.adj[w.indptr[u]:w.indptr[u+1]]
		if i, ok := slices.BinarySearch(list, v); ok {
			return w.ew[w.indptr[u]+int64(i)]
		}
		return 0
	}
	for v := int32(0); int(v) < w.n; v++ {
		for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
			u := w.adj[i]
			switch {
			case u < 0 || int(u) >= w.n:
				return fmt.Errorf("node %d lists %d of %d", v, u, w.n)
			case u == v:
				return fmt.Errorf("node %d lists itself", v)
			case i > w.indptr[v] && w.adj[i-1] >= u:
				return fmt.Errorf("node %d: list not strictly ascending at %d", v, u)
			case w.ew[i] <= 0:
				return fmt.Errorf("edge (%d,%d) has weight %d", v, u, w.ew[i])
			case weight(u, v) != w.ew[i]:
				return fmt.Errorf("edge (%d,%d) weighs %d, its reverse %d", v, u, w.ew[i], weight(u, v))
			}
		}
	}
	return nil
}

func sameWork(got, want *workGraph) error {
	switch {
	case got.n != want.n || got.totalW != want.totalW:
		return fmt.Errorf("n=%d totalW=%d, want n=%d totalW=%d", got.n, got.totalW, want.n, want.totalW)
	case !slices.Equal(got.indptr, want.indptr):
		return fmt.Errorf("indptr differs")
	case !slices.Equal(got.adj, want.adj):
		return fmt.Errorf("adj differs")
	case !slices.Equal(got.ew, want.ew):
		return fmt.Errorf("ew differs")
	case !slices.Equal(got.nw, want.nw):
		return fmt.Errorf("nw differs")
	}
	return nil
}

// diffAgainstReference holds the partitioner to the sort-based reference on
// one input: the work graph, every level Metis coarsens to, a contraction
// chain forced down to a handful of nodes (small inputs never coarsen inside
// Metis), refinement from a random assignment, and the final Parts.
func diffAgainstReference(g *graph.CSR, k int, seed uint64) error {
	n := g.NumNodes()
	want, refLevels, refMaps := refMetis(g, k, seed)
	got := Metis(g, k, seed)
	if err := got.Validate(n); err != nil {
		return err
	}
	if got.K != want.K || !slices.Equal(got.Parts, want.Parts) {
		return fmt.Errorf("Parts differ from the reference")
	}
	if n == 0 || k == 1 {
		return nil
	}

	order := make([]int, n)
	levels, maps := coarsenLevels(buildWork(g), k, order, rng.New(seed))
	if len(levels) != len(refLevels) {
		return fmt.Errorf("%d levels, reference %d", len(levels), len(refLevels))
	}
	for i, w := range levels {
		if err := checkSymmetric(w); err != nil {
			return fmt.Errorf("level %d: %v", i, err)
		}
		if err := sameWork(w, refLevels[i]); err != nil {
			return fmt.Errorf("level %d: %v", i, err)
		}
		if i < len(maps) && !slices.Equal(maps[i], refMaps[i]) {
			return fmt.Errorf("level %d: cmap differs", i)
		}
	}

	cur, ref := levels[0], refLevels[0]
	ra, rb := rng.New(seed+1), rng.New(seed+1)
	for depth := 0; depth < 24 && cur.n > 2; depth++ {
		cmap, coarse := cur.coarsen(order, ra)
		refCmap, refCoarse := ref.refCoarsen(rb)
		if !slices.Equal(cmap, refCmap) {
			return fmt.Errorf("chain depth %d: cmap differs", depth)
		}
		if err := checkSymmetric(coarse); err != nil {
			return fmt.Errorf("chain depth %d: %v", depth, err)
		}
		if err := sameWork(coarse, refCoarse); err != nil {
			return fmt.Errorf("chain depth %d: %v", depth, err)
		}
		if coarse.n == cur.n {
			break
		}
		cur, ref = coarse, refCoarse
	}

	// Random parts put most nodes on the boundary and usually one part over
	// the limit: many moves, and rebalance runs.
	w := levels[0]
	parts := make([]int32, n)
	for v := range parts {
		parts[v] = int32(ra.Intn(k))
		rb.Intn(k)
	}
	refParts := slices.Clone(parts)
	w.refine(parts, k, 4, order, ra)
	w.refRefine(refParts, k, 4, rb)
	if !slices.Equal(parts, refParts) {
		return fmt.Errorf("refine from random parts differs from the reference")
	}
	if ra.Uint64() != rb.Uint64() {
		return fmt.Errorf("refine drew a different number of random values than the reference")
	}
	return nil
}

// adversarial returns hand-built graphs that stress symmetrization: inputs
// that are not symmetric, not simple and not connected. Each is big enough
// (> 256 nodes) for Metis to coarsen.
func adversarial() map[string]*graph.CSR {
	const n = 600
	out := map[string]*graph.CSR{}
	build := func(name string, nodes int, edge func(add func(a, b int))) {
		var src, dst []graph.NodeID
		edge(func(a, b int) {
			src = append(src, graph.NodeID(a))
			dst = append(dst, graph.NodeID(b))
		})
		out[name] = graph.FromEdges(nodes, src, dst)
	}
	r := rng.New(99)
	build("multi-edges", n, func(add func(a, b int)) {
		for i := 0; i < 6*n; i++ {
			a, b := r.Intn(n), r.Intn(n)
			for c := 0; c <= i%4; c++ { // up to four copies, some reversed
				if c%2 == 0 {
					add(a, b)
				} else {
					add(b, a)
				}
			}
		}
	})
	build("self-loops", n, func(add func(a, b int)) {
		for v := 0; v < n; v++ {
			add(v, v)
			add(v, (v+1)%n)
			if v%3 == 0 {
				add(v, v)
				add(v, r.Intn(n))
			}
		}
	})
	build("one-directional", n, func(add func(a, b int)) {
		for i := 0; i < 5*n; i++ {
			a, b := r.Intn(n), r.Intn(n)
			if a < b { // only ever low -> high
				add(a, b)
			}
		}
	})
	build("isolated", n, func(add func(a, b int)) {
		for i := 0; i < 4*n; i++ { // odd nodes have no edge at all
			add(2*r.Intn(n/2), 2*r.Intn(n/2))
		}
	})
	build("star", n, func(add func(a, b int)) {
		for v := 1; v < n; v++ {
			add(0, v)
		}
	})
	build("two-components", n, func(add func(a, b int)) {
		for i := 0; i < 4*n; i++ {
			half := (i % 2) * (n / 2)
			add(half+r.Intn(n/2), half+r.Intn(n/2))
		}
	})
	build("no-edges", n, func(func(a, b int)) {})
	build("ring", 10, func(add func(a, b int)) {
		for v := 0; v < 10; v++ {
			add(v, (v+1)%10)
			add((v+1)%10, v)
		}
	})
	return out
}

func TestMatchesReference(t *testing.T) {
	for name, g := range adversarial() {
		for _, k := range []int{2, 3, 8} {
			for seed := uint64(0); seed < 3; seed++ {
				if err := diffAgainstReference(g, k, seed); err != nil {
					t.Errorf("%s k=%d seed=%d: %v", name, k, seed, err)
				}
			}
		}
	}
	cfgs := []gen.Config{
		{Name: "a", Nodes: 4000, AvgDegree: 16, FeatDim: 1, NumClasses: 8, Seed: 7},
		{Name: "b", Nodes: 1500, AvgDegree: 40, FeatDim: 1, NumClasses: 5, PowerLaw: 2.2, Seed: 8},
		{Name: "c", Nodes: 9000, AvgDegree: 4, FeatDim: 1, NumClasses: 30, PowerLaw: 2.5, Seed: 9},
		{Name: "d", Nodes: 300, AvgDegree: 3, FeatDim: 1, NumClasses: 2, Seed: 10},
	}
	for _, cfg := range cfgs {
		g := gen.Generate(cfg).G
		for _, k := range []int{2, 3, 8} {
			if err := diffAgainstReference(g, k, cfg.Seed+uint64(k)); err != nil {
				t.Errorf("gen %s k=%d: %v", cfg.Name, k, err)
			}
		}
	}
}

// fuzzGraph decodes bytes into a graph of at most 64 nodes, a part count and
// a seed: node count, k, seed, then (src, dst) pairs.
func fuzzGraph(data []byte) (*graph.CSR, int, uint64) {
	var hdr [3]byte
	copy(hdr[:], data)
	n, k, seed := int(hdr[0])%65, 1+int(hdr[1])%9, uint64(hdr[2])
	var src, dst []graph.NodeID
	if n > 0 && len(data) > 3 {
		for rest := data[3:]; len(rest) >= 2; rest = rest[2:] {
			src = append(src, graph.NodeID(int(rest[0])%n))
			dst = append(dst, graph.NodeID(int(rest[1])%n))
		}
	}
	return graph.FromEdges(n, src, dst), k, seed
}

func FuzzMetis(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{1, 3, 5})
	f.Add([]byte{3, 7, 1, 0, 1, 1, 2})                                                   // k > n
	f.Add([]byte{10, 3, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 0})  // ring, k=4
	f.Add([]byte{6, 1, 9, 0, 0, 0, 1, 0, 1, 1, 0, 2, 2, 3, 4, 3, 4, 3, 4})               // self-loops, multi-edges
	f.Add([]byte{64, 8, 3, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 9, 0, 10, 0}) // star
	star := []byte{40, 2, 7}
	for v := byte(0); v < 40; v++ {
		star = append(star, v, (v*7+3)%40, v, (v+1)%40)
	}
	f.Add(star)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k, seed := fuzzGraph(data)
		if err := diffAgainstReference(g, k, seed); err != nil {
			t.Fatalf("n=%d k=%d seed=%d: %v", g.NumNodes(), k, seed, err)
		}
	})
}
