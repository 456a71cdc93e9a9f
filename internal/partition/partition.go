// Package partition implements graph partitioning for DSP's data layout.
//
// The paper partitions the graph topology into well-connected patches with
// METIS, one patch per GPU, so that most adjacency-list accesses during
// collective sampling are local. This package provides a METIS-style
// multilevel k-way partitioner (heavy-edge-matching coarsening, greedy
// growing initial partition, FM-style boundary refinement during
// uncoarsening) plus a hash partitioner used as the locality-free control in
// the ablation benchmarks, and the renumbering that gives every patch a
// consecutive global-id range (making ownership lookup a range check).
package partition

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Result is a k-way node assignment.
type Result struct {
	K     int
	Parts []int32 // Parts[v] in [0,K)
}

// Validate checks the assignment covers every node with a valid part.
func (r *Result) Validate(n int) error {
	if len(r.Parts) != n {
		return fmt.Errorf("partition: %d assignments for %d nodes", len(r.Parts), n)
	}
	for v, p := range r.Parts {
		if p < 0 || int(p) >= r.K {
			return fmt.Errorf("partition: node %d in part %d of %d", v, p, r.K)
		}
	}
	return nil
}

// PartSizes returns node counts per part.
func (r *Result) PartSizes() []int {
	sizes := make([]int, r.K)
	for _, p := range r.Parts {
		sizes[p]++
	}
	return sizes
}

// Imbalance returns max part size over ideal size, 0 for no nodes.
func (r *Result) Imbalance() float64 {
	if len(r.Parts) == 0 {
		return 0
	}
	sizes := r.PartSizes()
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	ideal := float64(len(r.Parts)) / float64(r.K)
	return float64(maxSize) / ideal
}

// EdgeCut returns the number of adjacency entries of g whose endpoint lives
// in a different part, and the fraction of all entries.
func EdgeCut(g *graph.CSR, r *Result) (int64, float64) {
	var cut int64
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		pv := r.Parts[v]
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if r.Parts[u] != pv {
				cut++
			}
		}
	}
	total := g.NumEdges()
	if total == 0 {
		return 0, 0
	}
	return cut, float64(cut) / float64(total)
}

// Hash assigns node v to part v mod k — the locality-free baseline.
func Hash(g *graph.CSR, k int) *Result {
	n := g.NumNodes()
	r := &Result{K: k, Parts: make([]int32, n)}
	for v := 0; v < n; v++ {
		r.Parts[v] = int32(v % k)
	}
	return r
}

// maxImbalance is the balance constraint of refinement (METIS default ~1.03;
// we allow a little more because patches must also balance feature shards).
const maxImbalance = 1.05

// balanceLimit is the heaviest a part may get: maxImbalance over the ideal
// weight, but never under ceil(totalW/k) — below an ideal of 20 the product
// can truncate to less than that, a limit no assignment meets.
func balanceLimit(totalW int64, k int) int64 {
	limit := int64(float64(totalW) / float64(k) * maxImbalance)
	return max(limit, (totalW+int64(k)-1)/int64(k))
}

// Metis computes a k-way partition with a multilevel scheme. It is
// deterministic for a given (graph, k, seed).
func Metis(g *graph.CSR, k int, seed uint64) *Result {
	n := g.NumNodes()
	if k <= 0 {
		panic("partition: k must be positive")
	}
	if n == 0 {
		return &Result{K: k}
	}
	if k == 1 {
		return &Result{K: 1, Parts: make([]int32, n)}
	}
	w, s := buildWork(g)
	s.conn = make([]int64, n*k)
	return &Result{K: k, Parts: w.multilevel(k, s, rng.New(seed))}
}

// multilevel partitions w: coarsening, an initial partition of the coarsest
// graph, then refinement at every level on the way back to w.
func (w *workGraph) multilevel(k int, s *scratch, r *rng.RNG) []int32 {
	levels, maps := coarsenLevels(w, k, s, r)

	// Initial partition on the coarsest graph.
	cur := levels[len(maps)]
	parts := cur.greedyGrow(k, r)
	cur.refine(parts, k, 8, s, r)

	// Uncoarsening with refinement.
	for i := len(maps) - 1; i >= 0; i-- {
		fine := levels[i]
		cmap := maps[i]
		fineParts := make([]int32, fine.n)
		for v := 0; v < fine.n; v++ {
			fineParts[v] = parts[cmap[v]]
		}
		parts = fineParts
		fine.refine(parts, k, 4, s, r)
	}
	return parts
}

// coarsenLevels is the coarsening phase: it contracts w until the graph is
// small enough for the initial partition or stops shrinking. levels[0] is w,
// maps[i][v] the id at level i+1 of level i's node v, so levels is one longer
// than maps and ends with the coarsest graph.
func coarsenLevels(w *workGraph, k int, s *scratch, r *rng.RNG) (levels []*workGraph, maps [][]int32) {
	cur := w
	coarsenTarget := max(30*k, 256)
	for cur.n > coarsenTarget {
		cmap, coarse := cur.coarsen(s, r)
		if coarse.n >= cur.n*95/100 {
			break // diminishing returns
		}
		levels = append(levels, cur)
		maps = append(maps, cmap)
		cur = coarse
	}
	return append(levels, cur), maps
}

// visitOrder fills order[:n] with a random permutation of [0,n): the draws
// and the result of r.Perm(n), without an allocation per pass.
func visitOrder(order []int, n int, r *rng.RNG) []int {
	order = order[:n]
	for i := range order {
		order[i] = i
	}
	r.ShuffleInts(order)
	return order
}

// workGraph is the symmetrized, weighted graph the partitioner operates on.
// At every level it is symmetric with symmetric weights — u is in v's list
// with weight wt exactly when v is in u's with wt — has no self-loop and no
// neighbour listed twice. List order is unspecified: nothing that reads the
// lists depends on it (matching breaks weight ties by id, the rest sums).
type workGraph struct {
	n      int
	indptr []int64
	adj    []int32
	ew     []int64 // edge weights, aligned with adj
	nw     []int64 // node weights
	totalW int64
}

// scratch is the working memory of every level. A level is never larger than
// the finest, so each buffer is allocated once at that size and resliced.
type scratch struct {
	order []int   // visit order, see visitOrder
	match []int32 // coarsen's matching
	pos   []int64 // a merger's position table
	adj   []int32 // a merger's output, copied out at its exact size
	ew    []int64
	conn  []int64 // refine's n×k connectivity table; Metis sizes it, knowing k
}

func newScratch(n, entries int) *scratch {
	return &scratch{order: make([]int, n), match: make([]int32, n), pos: make([]int64, n),
		adj: make([]int32, entries), ew: make([]int64, entries)}
}

// merger writes lists one after another into s.adj/s.ew, one entry per
// neighbour in first-seen order: adding a neighbour the open list holds sums
// the weights. pos[d] is where d was last written, so at or past the open
// list's start it is in the list, lower a leftover of an earlier one: one load
// answers both "seen?" and "where?".
type merger struct {
	pos        []int64
	adj        []int32
	ew         []int64
	start, end int64 // the open list is adj[start:end]
}

// merger returns an empty merger over node ids [0,n).
func (s *scratch) merger(n int) merger {
	pos := s.pos[:n]
	for i := range pos {
		pos[i] = -1
	}
	return merger{pos: pos, adj: s.adj, ew: s.ew}
}

func (m *merger) add(d int32, wt int64) {
	if p := m.pos[d]; p >= m.start {
		m.ew[p] += wt
		return
	}
	m.pos[d] = m.end
	m.adj[m.end] = d
	m.ew[m.end] = wt
	m.end++
}

// close ends the open list and returns where it ends.
func (m *merger) close() int64 {
	m.start = m.end
	return m.end
}

// buildWork symmetrizes g (union of in/out edges), deduplicates multi-edges
// into weights and drops self-loops. It returns the scratch of every level
// with it, its merge buffers those of the raw lists.
func buildWork(g *graph.CSR) (*workGraph, *scratch) {
	n := g.NumNodes()
	// Both directions of every adjacency entry: count, then fill. A list
	// comes out unordered with one copy of u per multi-edge, which makes the
	// lists symmetric as multisets.
	ptr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if int(u) != v {
				ptr[v+1]++
				ptr[u+1]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		ptr[i] += ptr[i-1]
	}
	s := newScratch(n, int(ptr[n]))
	raw, cursor := s.adj, s.pos // pos is free until the merge
	copy(cursor, ptr[:n])
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if int(u) != v {
				raw[cursor[v]] = u
				cursor[v]++
				raw[cursor[u]] = int32(v)
				cursor[u]++
			}
		}
	}
	// Merge each list's copies of a neighbour into one entry weighted by the
	// copies: contraction under the identity map with unit weights. It runs
	// in place, the merged lists never reaching past the raw entry being read.
	w := &workGraph{n: n, nw: make([]int64, n), indptr: make([]int64, n+1), totalW: int64(n)}
	m := s.merger(n)
	for v := 0; v < n; v++ {
		w.nw[v] = 1
		for _, u := range raw[ptr[v]:ptr[v+1]] {
			m.add(u, 1)
		}
		w.indptr[v+1] = m.close()
	}
	w.adj, w.ew = slices.Clone(raw[:m.end]), slices.Clone(s.ew[:m.end])
	return w, s
}

// coarsen contracts a heavy-edge matching; returns the fine->coarse map and
// the coarse graph.
func (w *workGraph) coarsen(s *scratch, r *rng.RNG) ([]int32, *workGraph) {
	match := s.match[:w.n]
	for i := range match {
		match[i] = -1
	}
	for _, vi := range visitOrder(s.order, w.n, r) {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		// The heaviest unmatched neighbour, the lowest id among equals.
		var best int32 = -1
		var bestW int64 = -1
		for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
			u := w.adj[i]
			if match[u] >= 0 {
				continue
			}
			if ew := w.ew[i]; ew > bestW || (ew == bestW && u < best) {
				bestW = ew
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
	coarse := &workGraph{n: int(cn), nw: make([]int64, cn), indptr: make([]int64, cn+1), totalW: w.totalW}
	for v := 0; v < w.n; v++ {
		coarse.nw[cmap[v]] += w.nw[v]
	}
	// Merge the lists of each coarse node's one or two members.
	m := s.merger(int(cn))
	var c int32 // next coarse node; ids ascend with each pair's lower member
	for v := 0; v < w.n; v++ {
		if cmap[v] != c {
			continue // the higher member of an earlier pair
		}
		for x := int32(v); ; x = match[v] { // v, then its partner if it has one
			for i := w.indptr[x]; i < w.indptr[x+1]; i++ {
				if d := cmap[w.adj[i]]; d != c {
					m.add(d, w.ew[i])
				}
			}
			if x == match[v] {
				break
			}
		}
		c++
		coarse.indptr[c] = m.close()
	}
	coarse.adj, coarse.ew = slices.Clone(s.adj[:m.end]), slices.Clone(s.ew[:m.end])
	return cmap, coarse
}

// greedyGrow produces an initial k-way partition by growing connected
// regions up to the balance target.
func (w *workGraph) greedyGrow(k int, r *rng.RNG) []int32 {
	parts := make([]int32, w.n)
	for i := range parts {
		parts[i] = -1
	}
	target := w.totalW / int64(k)
	assigned := 0
	for p := 0; p < k-1; p++ {
		// Seed: random unassigned node.
		var seedNode int32 = -1
		for tries := 0; tries < 64 && seedNode < 0; tries++ {
			c := int32(r.Intn(w.n))
			if parts[c] < 0 {
				seedNode = c
			}
		}
		if seedNode < 0 {
			for v := 0; v < w.n; v++ {
				if parts[v] < 0 {
					seedNode = int32(v)
					break
				}
			}
		}
		if seedNode < 0 {
			break
		}
		// Grow by max connectivity to the region (simple frontier scan).
		var regionW int64
		parts[seedNode] = int32(p)
		regionW += w.nw[seedNode]
		assigned++
		gain := map[int32]int64{}
		addNeighbors := func(v int32) {
			for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
				u := w.adj[i]
				if parts[u] < 0 {
					gain[u] += w.ew[i]
				}
			}
		}
		addNeighbors(seedNode)
		for regionW < target && assigned < w.n {
			// Pick the unassigned node with max gain (deterministic
			// tie-break on id).
			var best int32 = -1
			var bestG int64 = -1
			for u, g := range gain {
				if g > bestG || (g == bestG && (best < 0 || u < best)) {
					best, bestG = u, g
				}
			}
			if best < 0 {
				// Region is disconnected from the rest: jump to any
				// unassigned node.
				for v := 0; v < w.n; v++ {
					if parts[v] < 0 {
						best = int32(v)
						break
					}
				}
				if best < 0 {
					break
				}
			}
			delete(gain, best)
			parts[best] = int32(p)
			regionW += w.nw[best]
			assigned++
			addNeighbors(best)
		}
	}
	// Remainder goes to the last part.
	for v := 0; v < w.n; v++ {
		if parts[v] < 0 {
			parts[v] = int32(k - 1)
		}
	}
	return parts
}

// connectivity fills conn[:n*k] with the table refine and rebalance read
// gains from: conn[v*k+p] is v's edge weight into part p, int64 like the
// weights it sums.
func (w *workGraph) connectivity(parts []int32, k int, conn []int64) []int64 {
	conn = conn[:w.n*k]
	clear(conn)
	for v := 0; v < w.n; v++ {
		row := conn[v*k : v*k+k]
		for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
			row[parts[w.adj[i]]] += w.ew[i]
		}
	}
	return conn
}

// relocate puts v in part to and keeps conn exact: the graph being symmetric,
// v is in each neighbour u's list once with the weight u is in v's, so that
// weight moves from u's column for the part left to the one for the part
// entered. v's own row does not change.
func (w *workGraph) relocate(v, to int32, parts []int32, k int, conn []int64) {
	from := parts[v]
	parts[v] = to
	for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
		row := int(w.adj[i]) * k
		conn[row+int(from)] -= w.ew[i]
		conn[row+int(to)] += w.ew[i]
	}
}

// refine runs FM-style greedy boundary passes: move a node to the
// neighbouring part with the highest positive gain, subject to the balance
// constraint. Gains come from the connectivity table, so a visit costs O(k)
// whatever v's degree (an interior node has no positive gain: it stays).
func (w *workGraph) refine(parts []int32, k int, passes int, s *scratch, r *rng.RNG) {
	partW := make([]int64, k)
	for v := 0; v < w.n; v++ {
		partW[parts[v]] += w.nw[v]
	}
	limit := balanceLimit(w.totalW, k)
	conn := w.connectivity(parts, k, s.conn)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, vi := range visitOrder(s.order, w.n, r) {
			v := int32(vi)
			pv := parts[v]
			row := conn[vi*k : vi*k+k]
			bestP := pv
			bestGain := int64(0)
			for p, c := range row {
				if int32(p) == pv || partW[p]+w.nw[v] > limit {
					continue
				}
				gain := c - row[pv]
				if gain > bestGain || (gain == bestGain && gain > 0 && partW[p] < partW[bestP]) {
					bestGain = gain
					bestP = int32(p)
				}
			}
			if bestP != pv && bestGain > 0 {
				partW[pv] -= w.nw[v]
				partW[bestP] += w.nw[v]
				w.relocate(v, bestP, parts, k, conn)
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	w.rebalance(parts, k, partW, limit, conn, s.order, r)
}

// rebalance forcibly empties overweight parts: nodes of any part above the
// balance limit move to their best-connected part with room, accepting
// negative gain (gain-driven refinement alone cannot repair a badly
// imbalanced initial partition). At the finest level node weights are 1 and
// balanceLimit is at least ceil(n/k), so some part always has room and one
// pass ends with every part within the limit; at a coarser level a heavy node
// may fit nowhere, and what is left over is repaired one level down. conn is
// refine's table, kept exact through every move.
func (w *workGraph) rebalance(parts []int32, k int, partW []int64, limit int64, conn []int64, order []int, r *rng.RNG) {
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
		for _, vi := range visitOrder(order, w.n, r) {
			v := int32(vi)
			pv := parts[v]
			if partW[pv] <= limit {
				continue
			}
			best := int32(-1)
			var bestKey int64 = -1 << 62
			for p, c := range conn[vi*k : vi*k+k] {
				if int32(p) == pv || partW[p]+w.nw[v] > limit {
					continue
				}
				// Prefer connectivity, then lighter parts.
				key := c*1000 - partW[p]
				if key > bestKey {
					bestKey = key
					best = int32(p)
				}
			}
			if best >= 0 {
				partW[pv] -= w.nw[v]
				partW[best] += w.nw[v]
				w.relocate(v, best, parts, k, conn)
				moved++
			}
		}
		if moved == 0 {
			return
		}
	}
}
