package partition

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The sort-based partitioner, kept as the oracle the linear-time one is held
// to. refBuildWork and refCoarsen are the bodies partition.go had before the
// symmetric-transpose rewrite, verbatim; refRefine and refRebalance are the
// old full-scan refinement, verbatim but for the balance limit, which both
// sides take from balanceLimit. Same (graph, k, seed) must give the same
// work graph at every level and the same Parts.

func refBuildWork(g *graph.CSR) *workGraph {
	n := g.NumNodes()
	// Emit both directions of every adjacency entry.
	type rec struct{ u, v int32 }
	m := len(g.Indices)
	recs := make([]rec, 0, 2*m)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if int(u) == v {
				continue
			}
			recs = append(recs, rec{int32(v), u})
			recs = append(recs, rec{u, int32(v)})
		}
	}
	// Bucket by u (counting sort) then sort each bucket by v and merge.
	counts := make([]int64, n+1)
	for _, e := range recs {
		counts[e.u+1]++
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	bucketed := make([]int32, len(recs))
	cursor := make([]int64, n)
	copy(cursor, counts[:n])
	for _, e := range recs {
		bucketed[cursor[e.u]] = e.v
		cursor[e.u]++
	}
	w := &workGraph{n: n, nw: make([]int64, n)}
	w.indptr = make([]int64, n+1)
	for v := 0; v < n; v++ {
		w.nw[v] = 1
		bucket := bucketed[counts[v]:counts[v+1]]
		slices.Sort(bucket)
		for i := 0; i < len(bucket); {
			j := i
			for j < len(bucket) && bucket[j] == bucket[i] {
				j++
			}
			w.adj = append(w.adj, bucket[i])
			w.ew = append(w.ew, int64(j-i))
			i = j
		}
		w.indptr[v+1] = int64(len(w.adj))
	}
	w.totalW = int64(n)
	return w
}

func (w *workGraph) refCoarsen(r *rng.RNG) ([]int32, *workGraph) {
	match := make([]int32, w.n)
	for i := range match {
		match[i] = -1
	}
	order := r.Perm(w.n)
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		var best int32 = -1
		var bestW int64 = -1
		for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
			u := w.adj[i]
			if match[u] >= 0 || u == v {
				continue
			}
			if w.ew[i] > bestW {
				bestW = w.ew[i]
				best = u
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	// Assign coarse ids.
	cmap := make([]int32, w.n)
	for i := range cmap {
		cmap[i] = -1
	}
	var cn int32
	for v := 0; v < w.n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = cn
		m := match[v]
		if int(m) != v && cmap[m] < 0 {
			cmap[m] = cn
		}
		cn++
	}
	// Build coarse graph: aggregate edges between coarse nodes.
	coarse := &workGraph{n: int(cn), nw: make([]int64, cn)}
	for v := 0; v < w.n; v++ {
		coarse.nw[cmap[v]] += w.nw[v]
	}
	coarse.totalW = w.totalW
	// Bucket edges by coarse source.
	type edge struct {
		u, v int32
		wt   int64
	}
	edges := make([]edge, 0, len(w.adj))
	for v := 0; v < w.n; v++ {
		cv := cmap[v]
		for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
			cu := cmap[w.adj[i]]
			if cu == cv {
				continue
			}
			edges = append(edges, edge{cv, cu, w.ew[i]})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if a.u != b.u {
			return int(a.u) - int(b.u)
		}
		return int(a.v) - int(b.v)
	})
	coarse.indptr = make([]int64, cn+1)
	idx := 0
	for v := int32(0); v < cn; v++ {
		for idx < len(edges) && edges[idx].u == v {
			j := idx
			var sum int64
			for j < len(edges) && edges[j].u == v && edges[j].v == edges[idx].v {
				sum += edges[j].wt
				j++
			}
			coarse.adj = append(coarse.adj, edges[idx].v)
			coarse.ew = append(coarse.ew, sum)
			idx = j
		}
		coarse.indptr[v+1] = int64(len(coarse.adj))
	}
	return cmap, coarse
}

func (w *workGraph) refRefine(parts []int32, k int, passes int, r *rng.RNG) {
	partW := make([]int64, k)
	for v := 0; v < w.n; v++ {
		partW[parts[v]] += w.nw[v]
	}
	limit := balanceLimit(w.totalW, k)
	conn := make([]int64, k) // scratch: connectivity of v to each part
	for pass := 0; pass < passes; pass++ {
		moved := 0
		order := r.Perm(w.n)
		for _, vi := range order {
			v := int32(vi)
			pv := parts[v]
			// Compute connectivity to each part; skip interior nodes fast.
			boundary := false
			for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
				if parts[w.adj[i]] != pv {
					boundary = true
					break
				}
			}
			if !boundary {
				continue
			}
			for p := range conn {
				conn[p] = 0
			}
			for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
				conn[parts[w.adj[i]]] += w.ew[i]
			}
			bestP := pv
			bestGain := int64(0)
			for p := 0; p < k; p++ {
				if int32(p) == pv {
					continue
				}
				if partW[p]+w.nw[v] > limit {
					continue
				}
				gain := conn[p] - conn[pv]
				if gain > bestGain || (gain == bestGain && gain > 0 && partW[p] < partW[bestP]) {
					bestGain = gain
					bestP = int32(p)
				}
			}
			if bestP != pv && bestGain > 0 {
				partW[pv] -= w.nw[v]
				partW[bestP] += w.nw[v]
				parts[v] = bestP
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	w.refRebalance(parts, k, partW, limit, r)
}

func (w *workGraph) refRebalance(parts []int32, k int, partW []int64, limit int64, r *rng.RNG) {
	conn := make([]int64, k)
	for pass := 0; pass < 8; pass++ {
		over := false
		for p := 0; p < k; p++ {
			if partW[p] > limit {
				over = true
			}
		}
		if !over {
			return
		}
		moved := 0
		order := r.Perm(w.n)
		for _, vi := range order {
			v := int32(vi)
			pv := parts[v]
			if partW[pv] <= limit {
				continue
			}
			for p := range conn {
				conn[p] = 0
			}
			for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
				conn[parts[w.adj[i]]] += w.ew[i]
			}
			best := int32(-1)
			var bestKey int64 = -1 << 62
			for p := 0; p < k; p++ {
				if int32(p) == pv || partW[p]+w.nw[v] > limit {
					continue
				}
				// Prefer connectivity, then lighter parts.
				key := conn[p]*1000 - partW[p]
				if key > bestKey {
					bestKey = key
					best = int32(p)
				}
			}
			if best >= 0 {
				partW[pv] -= w.nw[v]
				partW[best] += w.nw[v]
				parts[v] = best
				moved++
				if partW[pv] <= limit {
					continue
				}
			}
		}
		if moved == 0 {
			return
		}
	}
}

// refMetis is Metis's old driver over the reference pieces. It also returns
// every level's work graph (finest first) and the fine->coarse maps between
// them, for the level-by-level comparison.
func refMetis(g *graph.CSR, k int, seed uint64) (*Result, []*workGraph, [][]int32) {
	n := g.NumNodes()
	if n == 0 {
		return &Result{K: k}, nil, nil
	}
	if k == 1 {
		return &Result{K: 1, Parts: make([]int32, n)}, nil, nil
	}
	r := rng.New(seed)
	w := refBuildWork(g)

	var levels []*workGraph
	var maps [][]int32
	cur := w
	coarsenTarget := 30 * k
	if coarsenTarget < 256 {
		coarsenTarget = 256
	}
	for cur.n > coarsenTarget {
		cmap, coarse := cur.refCoarsen(r)
		if coarse.n >= cur.n*95/100 {
			break // diminishing returns
		}
		levels = append(levels, cur)
		maps = append(maps, cmap)
		cur = coarse
	}

	parts := cur.greedyGrow(k, r)
	cur.refRefine(parts, k, 8, r)

	for i := len(levels) - 1; i >= 0; i-- {
		fine := levels[i]
		cmap := maps[i]
		fineParts := make([]int32, fine.n)
		for v := 0; v < fine.n; v++ {
			fineParts[v] = parts[cmap[v]]
		}
		parts = fineParts
		fine.refRefine(parts, k, 4, r)
	}
	return &Result{K: k, Parts: parts}, append(levels, cur), maps
}
