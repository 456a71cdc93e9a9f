// Package graph provides the compressed-sparse-row (CSR) graph structures
// used throughout the system. Following the paper's implementation section,
// a node's adjacency list stores its in-neighbours (the nodes aggregated
// from during GNN message passing), which is the list graph sampling draws
// from.
package graph

import "fmt"

// NodeID is a global node identifier.
type NodeID = int32

// CSR is an adjacency structure in compressed sparse row format.
// Neighbours of node v are Indices[Indptr[v]:Indptr[v+1]]. Weights, if
// non-nil, holds one non-negative sampling weight per adjacency entry
// (biased sampling stores the neighbour's node weight alongside each edge so
// weight lookups are local, as DSP does during data preparation).
type CSR struct {
	Indptr  []int64
	Indices []NodeID
	Weights []float32
}

// NumNodes returns the node count.
func (g *CSR) NumNodes() int { return len(g.Indptr) - 1 }

// NumEdges returns the adjacency entry count.
func (g *CSR) NumEdges() int64 { return g.Indptr[len(g.Indptr)-1] }

// Degree returns the adjacency list length of v.
func (g *CSR) Degree(v NodeID) int { return int(g.Indptr[v+1] - g.Indptr[v]) }

// Neighbors returns the adjacency list of v (a view; do not mutate).
func (g *CSR) Neighbors(v NodeID) []NodeID {
	return g.Indices[g.Indptr[v]:g.Indptr[v+1]]
}

// NeighborWeights returns the weights aligned with Neighbors(v), or nil for
// unweighted graphs.
func (g *CSR) NeighborWeights(v NodeID) []float32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.Indptr[v]:g.Indptr[v+1]]
}

// WeightSum returns the total sampling weight of v's adjacency list; for
// unweighted graphs it is the degree.
func (g *CSR) WeightSum(v NodeID) float64 {
	if g.Weights == nil {
		return float64(g.Degree(v))
	}
	var s float64
	for _, w := range g.NeighborWeights(v) {
		s += float64(w)
	}
	return s
}

// TopologyBytes returns the simulated memory footprint of the CSR arrays.
// Adjacency entries are counted at 8 bytes each — the paper's artifact
// stores 64-bit node ids (25.6 GB for Papers' 3.2B edges) — even though
// this repository's in-process representation uses 32-bit ids.
func (g *CSR) TopologyBytes() int64 {
	b := int64(len(g.Indptr))*8 + int64(len(g.Indices))*8
	if g.Weights != nil {
		b += int64(len(g.Weights)) * 4
	}
	return b
}

// Validate checks structural invariants and returns the first violation.
func (g *CSR) Validate() error {
	if len(g.Indptr) == 0 {
		return fmt.Errorf("graph: empty indptr")
	}
	if g.Indptr[0] != 0 {
		return fmt.Errorf("graph: indptr[0] = %d, want 0", g.Indptr[0])
	}
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if g.Indptr[v+1] < g.Indptr[v] {
			return fmt.Errorf("graph: indptr not monotone at %d", v)
		}
	}
	if g.Indptr[n] != int64(len(g.Indices)) {
		return fmt.Errorf("graph: indptr[n]=%d != len(indices)=%d", g.Indptr[n], len(g.Indices))
	}
	for i, u := range g.Indices {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("graph: indices[%d]=%d out of range [0,%d)", i, u, n)
		}
	}
	if g.Weights != nil {
		if len(g.Weights) != len(g.Indices) {
			return fmt.Errorf("graph: %d weights for %d edges", len(g.Weights), len(g.Indices))
		}
		for i, w := range g.Weights {
			if w < 0 {
				return fmt.Errorf("graph: negative weight at %d", i)
			}
		}
	}
	return nil
}

// FromEdges builds a CSR with n nodes from directed edges (src -> dst means
// src appears in dst's adjacency list, i.e. src is an in-neighbour of dst).
func FromEdges(n int, src, dst []NodeID) *CSR {
	if len(src) != len(dst) {
		panic("graph: src/dst length mismatch")
	}
	if err := CheckScale(int64(n), int64(len(src))); err != nil {
		panic(err)
	}
	indptr := make([]int64, n+1)
	for _, d := range dst {
		indptr[d+1]++
	}
	for i := 1; i <= n; i++ {
		indptr[i] += indptr[i-1]
	}
	indices := make([]NodeID, len(src))
	cursor := make([]int64, n)
	copy(cursor, indptr[:n])
	for i, d := range dst {
		indices[cursor[d]] = src[i]
		cursor[d]++
	}
	return &CSR{Indptr: indptr, Indices: indices}
}

// NodesByDegreeDesc returns node ids sorted by descending degree (stable:
// ties broken by ascending id) — the paper's default hot-node criterion. It
// is a counting sort: each id goes to the next slot of its degree's run.
func (g *CSR) NodesByDegreeDesc() []NodeID {
	n := g.NumNodes()
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, g.Degree(NodeID(v)))
	}
	// next[d] is the slot of the next id of degree d: after every id of a
	// higher degree and every lower id of degree d.
	next := make([]int, maxDeg+1)
	for v := 0; v < n; v++ {
		next[g.Degree(NodeID(v))]++
	}
	pos := 0
	for d := maxDeg; d >= 0; d-- {
		next[d], pos = pos, pos+next[d]
	}
	ids := make([]NodeID, n)
	for v := 0; v < n; v++ {
		d := g.Degree(NodeID(v))
		ids[next[d]] = NodeID(v)
		next[d]++
	}
	return ids
}

// PageRank computes PageRank scores with the given damping over iters
// iterations (one of the alternative hot-node criteria in the paper). The
// stored adjacency is in-neighbours, so the standard pull formulation
// applies directly: rank flows from in-neighbours.
func (g *CSR) PageRank(damping float64, iters int) []float64 {
	n := g.NumNodes()
	rank := make([]float64, n)
	next := make([]float64, n)
	outdeg := make([]int32, n)
	for _, u := range g.Indices {
		outdeg[u]++
	}
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		var dangling float64
		for v := 0; v < n; v++ {
			if outdeg[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := range next {
			next[v] = base
		}
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(NodeID(v)) {
				next[v] += damping * rank[u] / float64(outdeg[u])
			}
		}
		rank, next = next, rank
	}
	return rank
}

// Reverse returns the transposed graph (out-neighbour lists), used for the
// reverse-PageRank hot-node criterion.
func (g *CSR) Reverse() *CSR {
	n := g.NumNodes()
	src := make([]NodeID, 0, len(g.Indices))
	dst := make([]NodeID, 0, len(g.Indices))
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(NodeID(v)) {
			src = append(src, NodeID(v))
			dst = append(dst, u)
		}
	}
	return FromEdges(n, src, dst)
}

// Subgraph extracts the adjacency lists of the given nodes as a patch: a
// map from the node's position in nodes to its (global-id) adjacency list.
// The paper stores global ids in patch adjacency lists to avoid converting
// sampled nodes back from local ids.
type Patch struct {
	// Nodes are the global ids owned by this patch, ascending.
	Nodes []NodeID
	// CSR holds the adjacency lists of Nodes in order; indices are GLOBAL.
	Adj CSR
}

// ExtractPatch builds a patch for the given owned nodes (must be sorted
// ascending and unique). The source may be flat or compressed; a compressed
// source yields sorted adjacency lists. A flat source over a contiguous id
// range shares its arrays with the patch (see rangePatch): neither may be
// written afterwards.
func ExtractPatch(g Topology, nodes []NodeID) *Patch {
	if c, ok := g.(*CSR); ok && len(nodes) > 0 && int(nodes[len(nodes)-1]-nodes[0]) == len(nodes)-1 {
		return c.rangePatch(nodes)
	}
	return copyPatch(g, nodes)
}

// copyPatch is ExtractPatch into arrays of the patch's own, decoding a
// compressed source row by row.
func copyPatch(g Topology, nodes []NodeID) *Patch {
	p := &Patch{Nodes: nodes}
	p.Adj.Indptr = make([]int64, len(nodes)+1)
	var total int64
	for i, v := range nodes {
		total += int64(g.Degree(v))
		p.Adj.Indptr[i+1] = total
	}
	p.Adj.Indices = make([]NodeID, 0, total)
	for _, v := range nodes {
		p.Adj.Indices = append(p.Adj.Indices, g.Neighbors(v)...)
	}
	if g.Weighted() {
		p.Adj.Weights = make([]float32, 0, total)
		for _, v := range nodes {
			p.Adj.Weights = append(p.Adj.Weights, g.NeighborWeights(v)...)
		}
	}
	return p
}

// rangePatch is ExtractPatch over the contiguous range nodes: the patch's
// Indices and Weights are the range's stretch of g's, capped at its end so an
// append cannot reach a neighbouring row, and only Indptr is copied (rebased
// to start at zero).
func (g *CSR) rangePatch(nodes []NodeID) *Patch {
	first, last := nodes[0], nodes[len(nodes)-1]
	lo, hi := g.Indptr[first], g.Indptr[last+1]
	p := &Patch{Nodes: nodes}
	p.Adj.Indptr = make([]int64, len(nodes)+1)
	for i := range nodes {
		p.Adj.Indptr[i+1] = g.Indptr[int(first)+i+1] - lo
	}
	p.Adj.Indices = g.Indices[lo:hi:hi]
	if g.Weights != nil {
		p.Adj.Weights = g.Weights[lo:hi:hi]
	}
	return p
}
