package partition

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Renumbering is a bijection between original node ids and the layout ids
// DSP uses, in which every patch owns a consecutive id range. The paper
// renumbers nodes so the owning GPU of a node is a simple range check, and
// adjacency lists store the (new) global ids of neighbours.
type Renumbering struct {
	K int
	// NewID maps old id -> new id; OldID is the inverse.
	NewID []graph.NodeID
	OldID []graph.NodeID
	// Offsets has K+1 entries; part p owns new ids [Offsets[p], Offsets[p+1]).
	Offsets []int64
}

// BuildRenumbering orders nodes by (part, old id).
func BuildRenumbering(res *Result) *Renumbering {
	n := len(res.Parts)
	r := &Renumbering{
		K:     res.K,
		NewID: make([]graph.NodeID, n),
		OldID: make([]graph.NodeID, n),
	}
	sizes := res.PartSizes()
	r.Offsets = make([]int64, res.K+1)
	for p := 0; p < res.K; p++ {
		r.Offsets[p+1] = r.Offsets[p] + int64(sizes[p])
	}
	cursor := make([]int64, res.K)
	copy(cursor, r.Offsets[:res.K])
	for old := 0; old < n; old++ {
		p := res.Parts[old]
		nid := graph.NodeID(cursor[p])
		cursor[p]++
		r.NewID[old] = nid
		r.OldID[nid] = graph.NodeID(old)
	}
	return r
}

// Owner returns the part owning a new-layout node id via range check.
func (r *Renumbering) Owner(newID graph.NodeID) int {
	// K is tiny (<= 8 GPUs); a linear range check mirrors the paper's
	// "simple range check" and beats binary search at this size.
	id := int64(newID)
	for p := 0; p < r.K; p++ {
		if id < r.Offsets[p+1] {
			return p
		}
	}
	panic(fmt.Sprintf("partition: node id %d out of range", newID))
}

// OwnedRange returns the new-id range [lo, hi) owned by part p.
func (r *Renumbering) OwnedRange(p int) (lo, hi graph.NodeID) {
	return graph.NodeID(r.Offsets[p]), graph.NodeID(r.Offsets[p+1])
}

// ApplyToGraph returns a new CSR in layout order: node NewID[v] has node v's
// adjacency list with every neighbour id remapped.
func (r *Renumbering) ApplyToGraph(g *graph.CSR) *graph.CSR {
	n := g.NumNodes()
	out := &graph.CSR{Indptr: make([]int64, n+1)}
	var total int64
	for nid := 0; nid < n; nid++ {
		old := r.OldID[nid]
		total += int64(g.Degree(old))
		out.Indptr[nid+1] = total
	}
	out.Indices = make([]graph.NodeID, 0, total)
	if g.Weights != nil {
		out.Weights = make([]float32, 0, total)
	}
	for nid := 0; nid < n; nid++ {
		old := r.OldID[nid]
		for _, u := range g.Neighbors(old) {
			out.Indices = append(out.Indices, r.NewID[u])
		}
		if g.Weights != nil {
			out.Weights = append(out.Weights, g.NeighborWeights(old)...)
		}
	}
	return out
}

// ApplyToIDs remaps a slice of old node ids into layout ids (copy).
func (r *Renumbering) ApplyToIDs(ids []graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, len(ids))
	for i, v := range ids {
		out[i] = r.NewID[v]
	}
	return out
}

// ApplyToLabels reorders per-node labels into layout order.
func (r *Renumbering) ApplyToLabels(labels []int32) []int32 {
	out := make([]int32, len(labels))
	for nid := range out {
		out[nid] = labels[r.OldID[nid]]
	}
	return out
}

// SortOwned returns the layout ids owned by part p from ids (already in
// layout space), sorted ascending — used to co-partition seed nodes.
func (r *Renumbering) SortOwned(ids []graph.NodeID, p int) []graph.NodeID {
	lo, hi := r.OwnedRange(p)
	var out []graph.NodeID
	for _, v := range ids {
		if v >= lo && v < hi {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}
