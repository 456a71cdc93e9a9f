package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// MaxNodes is the largest node count a graph may carry: NodeID is int32, so
// ids must fit in [0, MaxInt32). Edge counts and byte offsets are int64
// throughout and are checked against MaxEdges.
const MaxNodes = math.MaxInt32 - 1

// MaxEdges bounds total adjacency entries so byte-offset arithmetic
// (8 bytes/entry in the flat accounting) cannot overflow int64 and slice
// sizing cannot overflow int on 64-bit hosts.
const MaxEdges = int64(1) << 40

// CheckScale validates a (node count, edge count) pair against the storage
// limits. FromEdges calls it before sizing any slice, so 100M+-node
// configurations fail loudly instead of corrupting int32 ids.
func CheckScale(nodes int64, edges int64) error {
	if nodes < 0 || edges < 0 {
		return fmt.Errorf("graph: negative scale (%d nodes, %d edges)", nodes, edges)
	}
	if nodes > MaxNodes {
		return fmt.Errorf("graph: %d nodes exceeds MaxNodes %d (NodeID is int32)", nodes, MaxNodes)
	}
	if edges > MaxEdges {
		return fmt.Errorf("graph: %d edges exceeds MaxEdges %d", edges, MaxEdges)
	}
	return nil
}

// Topology is the read interface over a graph's adjacency structure. The
// sampling layers (internal/sample, internal/csp) consume it instead of the
// concrete *CSR so the compressed representation is a drop-in: both return
// identical neighbour lists for the same canonical (sorted) graph.
type Topology interface {
	NumNodes() int
	NumEdges() int64
	Degree(v NodeID) int
	// Neighbors returns v's adjacency list. CSR returns a view into its
	// arrays; CompressedCSR decodes a fresh slice. Callers must not mutate.
	Neighbors(v NodeID) []NodeID
	// NeighborWeights returns the weights aligned with Neighbors(v), or nil
	// for unweighted graphs.
	NeighborWeights(v NodeID) []float32
	WeightSum(v NodeID) float64
	// Weighted reports whether the graph carries per-edge sampling weights.
	Weighted() bool
	// TopologyBytes is the simulated memory footprint of the representation.
	TopologyBytes() int64
}

var (
	_ Topology = (*CSR)(nil)
	_ Topology = (*CompressedCSR)(nil)
)

// Weighted implements Topology.
func (g *CSR) Weighted() bool { return g.Weights != nil }

// Sorted returns a copy of g with every adjacency list sorted by neighbour
// id (weights permuted alongside) — the canonical form the compressed
// encoding stores. Sampling draws depend on adjacency order, so systems that
// compare against the compressed representation must sample the sorted flat
// graph.
func (g *CSR) Sorted() *CSR {
	n := g.NumNodes()
	out := &CSR{Indptr: append([]int64(nil), g.Indptr...)}
	out.Indices = append([]NodeID(nil), g.Indices...)
	if g.Weights != nil {
		out.Weights = append([]float32(nil), g.Weights...)
	}
	for v := 0; v < n; v++ {
		lo, hi := out.Indptr[v], out.Indptr[v+1]
		ids := out.Indices[lo:hi]
		if out.Weights == nil {
			slices.Sort(ids)
			continue
		}
		sort.Stable(idWeightPairs{ids, out.Weights[lo:hi]})
	}
	return out
}

// idWeightPairs sorts an id slice and its aligned weight slice together.
type idWeightPairs struct {
	ids []NodeID
	ws  []float32
}

func (p idWeightPairs) Len() int           { return len(p.ids) }
func (p idWeightPairs) Less(a, b int) bool { return p.ids[a] < p.ids[b] }
func (p idWeightPairs) Swap(a, b int) {
	p.ids[a], p.ids[b] = p.ids[b], p.ids[a]
	p.ws[a], p.ws[b] = p.ws[b], p.ws[a]
}

// CompressedCSR stores adjacency lists delta-sorted and varint-encoded, the
// FastSample-style format: per node, a uvarint degree, the first neighbour
// id as a uvarint, then successive gaps (id[i] - id[i-1]) as uvarints.
// Sorted lists make every gap non-negative and small inside communities, so
// typical social/citation graphs encode in 1-2 bytes per edge against the 8
// bytes per edge the flat accounting charges.
//
// Offsets[v] is the byte offset of node v's encoded row in Data and
// EdgeOff[v] its first-edge index, each with a trailing sentinel, so every
// row is sized, located and decoded without walking its predecessors;
// EdgeOff also locates a weighted graph's raw float32 weight run.
type CompressedCSR struct {
	N       int
	Edges   int64
	Offsets []int64
	EdgeOff []int64
	Data    []byte
	// Weights, when non-nil, holds per-edge sampling weights in the same
	// sorted order as the encoded ids (weights do not delta-compress).
	Weights []float32
}

// Compress encodes g in its Sorted form: each row is sorted (weights
// permuted alongside) and appended as its degree and gap uvarints.
func Compress(g *CSR) *CompressedCSR {
	n := g.NumNodes()
	c := &CompressedCSR{N: n, Offsets: make([]int64, 1, n+1), EdgeOff: make([]int64, 1, n+1)}
	if g.Weights != nil {
		c.Weights = make([]float32, 0, len(g.Weights))
	}
	ids := make([]NodeID, 0, 64)
	for v := NodeID(0); int(v) < n; v++ {
		ids = append(ids[:0], g.Neighbors(v)...)
		if c.Weights != nil {
			c.Weights = append(c.Weights, g.NeighborWeights(v)...)
			sort.Stable(idWeightPairs{ids, c.Weights[c.Edges:]})
		} else {
			slices.Sort(ids)
		}
		c.Data = binary.AppendUvarint(c.Data, uint64(len(ids)))
		prev := NodeID(0)
		for _, u := range ids {
			c.Data = binary.AppendUvarint(c.Data, uint64(u-prev))
			prev = u
		}
		c.Edges += int64(len(ids))
		c.Offsets = append(c.Offsets, int64(len(c.Data)))
		c.EdgeOff = append(c.EdgeOff, c.Edges)
	}
	return c
}

// NumNodes implements Topology.
func (c *CompressedCSR) NumNodes() int { return c.N }

// NumEdges implements Topology.
func (c *CompressedCSR) NumEdges() int64 { return c.Edges }

// Weighted implements Topology.
func (c *CompressedCSR) Weighted() bool { return c.Weights != nil }

// Degree implements Topology from the first-edge index.
func (c *CompressedCSR) Degree(v NodeID) int {
	return int(c.EdgeOff[v+1] - c.EdgeOff[v])
}

// Neighbors implements Topology: it decodes v's sorted adjacency list into
// a fresh slice.
func (c *CompressedCSR) Neighbors(v NodeID) []NodeID {
	out := make([]NodeID, c.Degree(v))
	pos := c.Offsets[v]
	_, k := binary.Uvarint(c.Data[pos:]) // the degree, which EdgeOff gives
	prev := NodeID(0)
	for i := range out {
		pos += int64(k)
		var d uint64
		d, k = binary.Uvarint(c.Data[pos:])
		if k <= 0 {
			panic("graph: corrupt compressed adjacency")
		}
		prev += NodeID(d)
		out[i] = prev
	}
	return out
}

// NeighborWeights implements Topology (a view into the sorted weight run).
func (c *CompressedCSR) NeighborWeights(v NodeID) []float32 {
	if c.Weights == nil {
		return nil
	}
	return c.Weights[c.EdgeOff[v]:c.EdgeOff[v+1]]
}

// WeightSum implements Topology.
func (c *CompressedCSR) WeightSum(v NodeID) float64 {
	if c.Weights == nil {
		return float64(c.Degree(v))
	}
	var s float64
	for _, w := range c.NeighborWeights(v) {
		s += float64(w)
	}
	return s
}

// TopologyBytes implements Topology: the encoded bytes plus the offset
// tables (and raw weights when present). This is what actually sits in
// memory, against the 8-bytes-per-edge flat accounting.
func (c *CompressedCSR) TopologyBytes() int64 {
	b := int64(len(c.Data)) + int64(len(c.Offsets))*8 + int64(len(c.EdgeOff))*8
	if c.Weights != nil {
		b += int64(len(c.Weights)) * 4
	}
	return b
}

// NodeBytes returns the encoded size of v's adjacency list (degree varint
// included) — the decode work a sampler touching v pays.
func (c *CompressedCSR) NodeBytes(v NodeID) int64 {
	return c.Offsets[v+1] - c.Offsets[v]
}

// RangeBytes returns the resident bytes of nodes [lo, hi), lo <= hi <= N:
// encoded adjacency plus the offset-table share plus weights.
func (c *CompressedCSR) RangeBytes(lo, hi NodeID) int64 {
	b := c.Offsets[hi] - c.Offsets[lo] + int64(hi-lo)*16
	if int(hi) == c.N {
		b += 16 // the trailing offset-table sentinel lives with the last range
	}
	if c.Weights != nil {
		b += (c.EdgeOff[hi] - c.EdgeOff[lo]) * 4
	}
	return b
}

// RangeBytes returns the flat resident bytes of nodes [lo, hi) (indptr
// share plus 8-byte adjacency entries, plus weights), mirroring
// TopologyBytes' accounting.
func (g *CSR) RangeBytes(lo, hi NodeID) int64 {
	edges := g.Indptr[hi] - g.Indptr[lo]
	b := int64(hi-lo)*8 + edges*8
	if int(hi) == g.NumNodes() {
		b += 8 // the trailing indptr sentinel lives with the last range
	}
	if g.Weights != nil {
		b += edges * 4
	}
	return b
}

// Decompress expands the graph back to flat CSR (adjacency lists sorted, as
// stored). The property test asserts Decompress(Compress(g)) equals
// g.Sorted() byte for byte.
func (c *CompressedCSR) Decompress() *CSR {
	g := &CSR{Indptr: make([]int64, c.N+1), Indices: make([]NodeID, 0, c.Edges)}
	for v := 0; v < c.N; v++ {
		g.Indices = append(g.Indices, c.Neighbors(NodeID(v))...)
		g.Indptr[v+1] = int64(len(g.Indices))
	}
	if c.Weights != nil {
		g.Weights = append([]float32(nil), c.Weights...)
	}
	return g
}
