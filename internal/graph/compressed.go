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
// limits. FromEdges and NewEncoder call it before sizing any slice, so
// 100M+-node configurations fail loudly instead of corrupting int32 ids.
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
// Offsets holds byte offsets into Data at BlockSize-node granularity
// (BlockSize 1 = per-node decode; larger blocks trade offset memory for a
// short in-block walk). EdgeOff mirrors it with first-edge indices so
// weighted graphs can locate their raw float32 weight runs.
type CompressedCSR struct {
	N         int
	Edges     int64
	BlockSize int
	Offsets   []int64
	EdgeOff   []int64
	Data      []byte
	// Weights, when non-nil, holds per-edge sampling weights in the same
	// sorted order as the encoded ids (weights do not delta-compress).
	Weights []float32
}

// Compress encodes g (canonicalised with Sorted) with per-node offsets.
func Compress(g *CSR) *CompressedCSR { return CompressBlocks(g, 1) }

// CompressBlocks encodes g with offsets every blockSize nodes.
func CompressBlocks(g *CSR, blockSize int) *CompressedCSR {
	if blockSize < 1 {
		blockSize = 1
	}
	n := g.NumNodes()
	enc := NewEncoder(n, blockSize, g.Weights != nil)
	ids := make([]NodeID, 0, 64)
	var ws []float32
	for v := 0; v < n; v++ {
		ids = append(ids[:0], g.Neighbors(NodeID(v))...)
		if g.Weights != nil {
			ws = append(ws[:0], g.NeighborWeights(NodeID(v))...)
			sort.Stable(idWeightPairs{ids, ws})
		} else {
			slices.Sort(ids)
			ws = nil
		}
		enc.AppendNode(ids, ws)
	}
	return enc.Finish()
}

// Encoder streams adjacency lists into a CompressedCSR one node at a time,
// in ascending node order; CompressBlocks feeds it from a flat CSR.
type Encoder struct {
	c      *CompressedCSR
	next   int
	varbuf [binary.MaxVarintLen64]byte
}

// NewEncoder starts an encoder for n nodes.
func NewEncoder(n, blockSize int, weighted bool) *Encoder {
	if blockSize < 1 {
		blockSize = 1
	}
	if err := CheckScale(int64(n), 0); err != nil {
		panic(err)
	}
	nb := 0
	if n > 0 {
		nb = (n + blockSize - 1) / blockSize
	}
	c := &CompressedCSR{N: n, BlockSize: blockSize,
		Offsets: make([]int64, 1, nb+1), EdgeOff: make([]int64, 1, nb+1)}
	if weighted {
		c.Weights = []float32{}
	}
	return &Encoder{c: c}
}

// AppendNode encodes the next node's adjacency list. ids must be sorted
// ascending; weights must be nil for unweighted encoders and id-aligned
// otherwise.
func (e *Encoder) AppendNode(ids []NodeID, weights []float32) {
	if e.next >= e.c.N {
		panic("graph: Encoder.AppendNode past node count")
	}
	if e.c.Weights == nil && len(weights) > 0 {
		panic("graph: weights passed to unweighted Encoder")
	}
	if e.c.Weights != nil && len(weights) != len(ids) {
		panic("graph: Encoder weights not aligned with ids")
	}
	c := e.c
	k := binary.PutUvarint(e.varbuf[:], uint64(len(ids)))
	c.Data = append(c.Data, e.varbuf[:k]...)
	prev := NodeID(0)
	for i, u := range ids {
		if i > 0 && u < prev {
			panic("graph: Encoder.AppendNode ids not sorted")
		}
		delta := uint64(u)
		if i > 0 {
			delta = uint64(u - prev)
		}
		k = binary.PutUvarint(e.varbuf[:], delta)
		c.Data = append(c.Data, e.varbuf[:k]...)
		prev = u
	}
	if weights != nil {
		c.Weights = append(c.Weights, weights...)
	}
	c.Edges += int64(len(ids))
	e.next++
	if e.next%c.BlockSize == 0 || e.next == c.N {
		c.Offsets = append(c.Offsets, int64(len(c.Data)))
		c.EdgeOff = append(c.EdgeOff, c.Edges)
	}
	if err := CheckScale(int64(c.N), c.Edges); err != nil {
		panic(err)
	}
}

// Finish returns the encoded graph; the encoder must have seen all n nodes.
func (e *Encoder) Finish() *CompressedCSR {
	if e.next != e.c.N {
		panic(fmt.Sprintf("graph: Encoder finished at node %d of %d", e.next, e.c.N))
	}
	return e.c
}

// NumNodes implements Topology.
func (c *CompressedCSR) NumNodes() int { return c.N }

// NumEdges implements Topology.
func (c *CompressedCSR) NumEdges() int64 { return c.Edges }

// Weighted implements Topology.
func (c *CompressedCSR) Weighted() bool { return c.Weights != nil }

// seek walks to node v inside its block and returns the byte position of
// v's encoded list, its first-edge index, and its degree.
func (c *CompressedCSR) seek(v NodeID) (pos int64, edge int64, deg int) {
	b := int(v) / c.BlockSize
	pos, edge = c.Offsets[b], c.EdgeOff[b]
	for u := NodeID(b * c.BlockSize); ; u++ {
		d, k := binary.Uvarint(c.Data[pos:])
		if k <= 0 {
			panic("graph: corrupt compressed adjacency")
		}
		if u == v {
			return pos + int64(k), edge, int(d)
		}
		pos += int64(k)
		for i := uint64(0); i < d; i++ {
			_, k = binary.Uvarint(c.Data[pos:])
			if k <= 0 {
				panic("graph: corrupt compressed adjacency")
			}
			pos += int64(k)
		}
		edge += int64(d)
	}
}

// Degree implements Topology by decoding the degree varint.
func (c *CompressedCSR) Degree(v NodeID) int {
	_, _, deg := c.seek(v)
	return deg
}

// Neighbors implements Topology: it decodes v's sorted adjacency list into
// a fresh slice.
func (c *CompressedCSR) Neighbors(v NodeID) []NodeID {
	pos, _, deg := c.seek(v)
	out := make([]NodeID, deg)
	prev := NodeID(0)
	for i := 0; i < deg; i++ {
		d, k := binary.Uvarint(c.Data[pos:])
		if k <= 0 {
			panic("graph: corrupt compressed adjacency")
		}
		pos += int64(k)
		if i == 0 {
			prev = NodeID(d)
		} else {
			prev += NodeID(d)
		}
		out[i] = prev
	}
	return out
}

// NeighborWeights implements Topology (a view into the sorted weight run).
func (c *CompressedCSR) NeighborWeights(v NodeID) []float32 {
	if c.Weights == nil {
		return nil
	}
	_, edge, deg := c.seek(v)
	return c.Weights[edge : edge+int64(deg)]
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
	pos, _, deg := c.seek(v)
	end := pos
	for i := 0; i < deg; i++ {
		_, k := binary.Uvarint(c.Data[end:])
		end += int64(k)
	}
	// seek already skipped the degree varint; charge it too.
	b := int(v) / c.BlockSize
	if int(v) == b*c.BlockSize {
		return end - c.Offsets[b]
	}
	return end - pos + varintLen(uint64(deg))
}

// NodeByteTable returns NodeBytes(v) for every node from one linear pass
// over Data, for callers that price rows repeatedly.
func (c *CompressedCSR) NodeByteTable() []int64 {
	out := make([]int64, c.N)
	var pos int64
	for v := range out {
		start := pos
		deg, k := binary.Uvarint(c.Data[pos:])
		for i := uint64(0); k > 0 && i < deg; i++ {
			pos += int64(k)
			_, k = binary.Uvarint(c.Data[pos:])
		}
		if k <= 0 {
			panic("graph: corrupt compressed adjacency")
		}
		pos += int64(k)
		out[v] = pos - start
	}
	return out
}

func varintLen(x uint64) int64 {
	n := int64(1)
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// RangeBytes returns the resident bytes of nodes [lo, hi): encoded
// adjacency plus the per-block offset-table share plus weights. lo and hi
// must be BlockSize-aligned (hi may be N) so block boundaries are exact —
// the out-of-core store aligns its blocks to the encoding.
func (c *CompressedCSR) RangeBytes(lo, hi NodeID) int64 {
	bl, bh := c.blockIndex(lo, "lo"), c.blockIndex(hi, "hi")
	b := c.Offsets[bh] - c.Offsets[bl] + int64(bh-bl)*16
	if bh == len(c.Offsets)-1 {
		b += 16 // the trailing offset-table sentinel lives with the last range
	}
	if c.Weights != nil {
		b += (c.EdgeOff[bh] - c.EdgeOff[bl]) * 4
	}
	return b
}

func (c *CompressedCSR) blockIndex(v NodeID, what string) int {
	if int(v) == c.N {
		return len(c.Offsets) - 1
	}
	if int(v)%c.BlockSize != 0 {
		panic(fmt.Sprintf("graph: RangeBytes %s=%d not aligned to block size %d", what, v, c.BlockSize))
	}
	return int(v) / c.BlockSize
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
