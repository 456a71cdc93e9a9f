package sample

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Block is one layer of a mini-batch sample: a bipartite graph from sampled
// source nodes to the destination nodes whose next-layer embeddings it
// computes (the DGL "block" structure DSP inherits).
type Block struct {
	// Dst are the unique nodes computed by this block (global ids).
	Dst []graph.NodeID
	// SrcPtr/Src form a CSR: sampled neighbours of Dst[i] are
	// Src[SrcPtr[i]:SrcPtr[i+1]] (global ids, duplicates possible).
	SrcPtr []int32
	Src    []graph.NodeID

	// InputNodes are the unique nodes whose previous-layer embeddings this
	// block consumes: Dst first (self connections), then the remaining
	// unique Src nodes.
	InputNodes []graph.NodeID
	// SrcLocal maps each Src entry to its InputNodes index. Dst needs no such
	// table: Dst[i] is InputNodes[i] by construction.
	SrcLocal []int32
}

// NumEdges returns the number of sampled (src, dst) pairs.
func (b *Block) NumEdges() int { return len(b.Src) }

// Deduper assembles blocks with a reusable direct-address mark table instead
// of a per-call hash map — the dominant cost of BuildBlock on the hot
// sampling path. It is not safe for concurrent use, but every build leaves
// the table zeroed, so any number of callers whose builds never overlap —
// the ranks of one sampler world, which build on the engine thread — share
// one; node ids must stay below the numNodes it was sized for.
type Deduper struct {
	mark []int32 // mark[v] = local index + 1 for the in-flight block
}

// NewDeduper returns a deduper for global ids in [0, numNodes).
func NewDeduper(numNodes int) *Deduper {
	return &Deduper{mark: make([]int32, numNodes)}
}

// BuildBlock is identical in results to the package-level BuildBlock but
// reuses the deduper's mark table for the unique-input-node index. The block
// keeps samples as its Src.
func (d *Deduper) BuildBlock(dst []graph.NodeID, counts []int32, samples []graph.NodeID) *Block {
	b := &Block{Src: samples}
	d.Build(b, dst, counts)
	return b
}

// SrcFor readies b.Src to take n samples and returns it: b's own storage
// when it is large enough, grown with headroom otherwise (see fit), and nil
// when n is 0 — a block with no samples keeps no Src array, as BuildBlock
// leaves it. The caller writes the samples into it, then calls Build.
func (b *Block) SrcFor(n int) []graph.NodeID {
	src := b.Src
	b.Src = nil
	if n > 0 {
		b.Src = fit(src, n)
	}
	return b.Src
}

// Build writes b's Dst, SrcPtr, SrcLocal and InputNodes for the samples
// already in b.Src, in b's own arrays when they are large enough (see fit):
// a block of a batch its sampler got back is rebuilt with no copy of its
// samples and no allocation. The result equals BuildBlock's on the same
// samples by reflect.DeepEqual (SrcLocal and InputNodes are never nil). dst
// must not share storage with b's arrays.
func (d *Deduper) Build(b *Block, dst []graph.NodeID, counts []int32) {
	if len(dst) != len(counts) {
		panic("sample: dst/counts length mismatch")
	}
	samples := b.Src
	b.Dst = dst
	b.SrcPtr = fit(b.SrcPtr, len(dst)+1)
	b.SrcPtr[0] = 0
	var total int32
	for i, c := range counts {
		total += c
		b.SrcPtr[i+1] = total
	}
	if int(total) != len(samples) {
		panic(fmt.Sprintf("sample: %d samples for counts summing to %d", len(samples), total))
	}
	// InputNodes: dst first, then unseen src nodes, written in place into
	// the block's array. The loop below writes up to one slot past the
	// unique count, so the array needs len(dst)+len(samples) slots, or one
	// more than there are ids if that is fewer.
	mark := d.mark
	in := fit(b.InputNodes, min(len(dst)+len(samples), len(mark)+1))
	copy(in, dst)
	for i, v := range dst {
		mark[v] = int32(i) + 1
	}
	// First-seen order without a branch: whether a sample is new is
	// data-random, so every sample is written at the next unique slot and
	// the count advances by fresh (1 when mark[v] is 0, else 0); a repeat is
	// overwritten by the next sample. A new v's mark becomes the advanced
	// count, its local index + 1.
	n := int32(len(dst))
	srcLocal := fit(b.SrcLocal, len(samples))
	for i, v := range samples {
		in[n] = v
		li := mark[v]
		fresh := int32(uint32(li-1) >> 31) // li >= 0, so 1 exactly when li == 0
		n += fresh
		li += fresh * n
		mark[v] = li
		srcLocal[i] = li - 1
	}
	b.SrcLocal = srcLocal
	in = in[:n]
	// Reset only the touched entries so the table is clean for the next
	// block at O(unique) cost.
	for _, v := range in {
		mark[v] = 0
	}
	b.InputNodes = in
}

// fit returns s with length n and unspecified contents, never nil. A nil s
// (a new block's array) gets exactly n; a reused one keeps its storage when
// that is large enough and otherwise gets a quarter of headroom, since the
// next batch of the same shape differs by a few per cent.
func fit[T any](s []T, n int) []T {
	switch {
	case s == nil:
		return make([]T, n)
	case cap(s) >= n:
		return s[:n]
	}
	return make([]T, n, n+n/4)
}

// BuildBlock assembles a block from per-destination sample lists and
// computes the unique input-node set and local index mappings.
func BuildBlock(dst []graph.NodeID, counts []int32, samples []graph.NodeID) *Block {
	if len(dst) != len(counts) {
		panic("sample: dst/counts length mismatch")
	}
	b := &Block{Dst: dst, Src: samples}
	b.SrcPtr = make([]int32, len(dst)+1)
	var total int32
	for i, c := range counts {
		total += c
		b.SrcPtr[i+1] = total
	}
	if int(total) != len(samples) {
		panic(fmt.Sprintf("sample: %d samples for counts summing to %d", len(samples), total))
	}
	// InputNodes: dst first, then unseen src nodes.
	index := make(map[graph.NodeID]int32, len(dst)+len(samples))
	b.InputNodes = make([]graph.NodeID, 0, len(dst)+len(samples)/2)
	for i, v := range dst {
		index[v] = int32(i)
		b.InputNodes = append(b.InputNodes, v)
	}
	b.SrcLocal = make([]int32, len(samples))
	for i, v := range samples {
		li, ok := index[v]
		if !ok {
			li = int32(len(b.InputNodes))
			index[v] = li
			b.InputNodes = append(b.InputNodes, v)
		}
		b.SrcLocal[i] = li
	}
	return b
}

// Validate checks block invariants.
func (b *Block) Validate() error {
	if len(b.SrcPtr) != len(b.Dst)+1 {
		return fmt.Errorf("sample: srcptr length %d for %d dst", len(b.SrcPtr), len(b.Dst))
	}
	if int(b.SrcPtr[len(b.Dst)]) != len(b.Src) {
		return fmt.Errorf("sample: srcptr end %d != %d srcs", b.SrcPtr[len(b.Dst)], len(b.Src))
	}
	seen := make(map[graph.NodeID]bool, len(b.InputNodes))
	for _, v := range b.InputNodes {
		if seen[v] {
			return fmt.Errorf("sample: duplicate input node %d", v)
		}
		seen[v] = true
	}
	if len(b.InputNodes) < len(b.Dst) {
		return fmt.Errorf("sample: %d input nodes for %d dst", len(b.InputNodes), len(b.Dst))
	}
	for i, v := range b.Dst {
		if b.InputNodes[i] != v {
			return fmt.Errorf("sample: input node %d is not dst %d", i, i)
		}
	}
	for i, v := range b.Src {
		if b.InputNodes[b.SrcLocal[i]] != v {
			return fmt.Errorf("sample: src local index broken at %d", i)
		}
	}
	return nil
}

// MiniBatch is a complete multi-layer graph sample for a set of seeds.
// Blocks[0] is input-most: its InputNodes require raw features; Blocks[K-1]
// computes seed embeddings. Adjacent blocks chain: Blocks[l+1]'s InputNodes
// equal Blocks[l]'s Dst.
type MiniBatch struct {
	Seeds  []graph.NodeID
	Blocks []*Block
	// Epoch/Step identify the batch; Seed is the batch sampling seed.
	Epoch, Step int
	Seed        uint64
}

// InputNodes returns the nodes whose raw features the batch needs.
func (mb *MiniBatch) InputNodes() []graph.NodeID {
	return mb.Blocks[0].InputNodes
}

// NumSampledEdges returns total sampled edges across layers (the sampling
// work volume).
func (mb *MiniBatch) NumSampledEdges() int64 {
	var t int64
	for _, b := range mb.Blocks {
		t += int64(b.NumEdges())
	}
	return t
}

// Validate checks the chaining invariants between blocks.
func (mb *MiniBatch) Validate() error {
	if len(mb.Blocks) == 0 {
		return fmt.Errorf("sample: empty minibatch")
	}
	for l, b := range mb.Blocks {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("block %d: %w", l, err)
		}
	}
	last := mb.Blocks[len(mb.Blocks)-1]
	if len(last.Dst) != len(mb.Seeds) {
		return fmt.Errorf("sample: output block computes %d nodes for %d seeds", len(last.Dst), len(mb.Seeds))
	}
	for i, s := range mb.Seeds {
		if last.Dst[i] != s {
			return fmt.Errorf("sample: output dst %d != seed %d", last.Dst[i], s)
		}
	}
	for l := 0; l+1 < len(mb.Blocks); l++ {
		upper := mb.Blocks[l+1]
		lower := mb.Blocks[l]
		if len(upper.InputNodes) != len(lower.Dst) {
			return fmt.Errorf("sample: chain broken at %d: %d vs %d", l, len(upper.InputNodes), len(lower.Dst))
		}
		for i := range lower.Dst {
			if upper.InputNodes[i] != lower.Dst[i] {
				return fmt.Errorf("sample: chain mismatch at block %d pos %d", l, i)
			}
		}
	}
	return nil
}

// Config mirrors the paper's Table 2: the configurable parameters of the
// collective sampling primitive.
type Config struct {
	// Fanout[l] is the per-node fan-out (node-wise) or the layer budget
	// (layer-wise) for hop l; len(Fanout) is the number of layers.
	Fanout []int
	// LayerWise selects layer-wise (FastGCN-style) over node-wise sampling.
	LayerWise bool
	// Biased uses edge weights; requires the graph to carry weights.
	Biased bool
	// WithReplacement controls the layer-wise variant (and, for node-wise,
	// whether draws may repeat).
	WithReplacement bool
}

// Layers returns the number of sampling hops.
func (c Config) Layers() int { return len(c.Fanout) }

// Validate rejects a fan-out (or layer budget) below one: the kernels draw
// nothing for it, so a run would train or serve on seed-only blocks.
func (c Config) Validate() error {
	for l, f := range c.Fanout {
		if f < 1 {
			return fmt.Errorf("sample: Fanout[%d] = %d, want at least 1", l, f)
		}
	}
	return nil
}

// Reference samples a mini-batch on a single address space — the oracle the
// distributed CSP implementation must match exactly, and the kernel the
// single-GPU / CPU baselines execute. It consumes the Topology interface, so
// flat and compressed graphs sample identically when their adjacency lists
// agree (compressed lists are canonically sorted; see graph.Sorted).
func Reference(g graph.Topology, seeds []graph.NodeID, cfg Config, batchSeed uint64) *MiniBatch {
	return ReferenceInto(nil, g, seeds, cfg, batchSeed)
}

// ReferenceInto is Reference with a reusable Deduper (nil falls back to the
// map-based block builder) so hot callers skip per-block map churn.
func ReferenceInto(d *Deduper, g graph.Topology, seeds []graph.NodeID, cfg Config, batchSeed uint64) *MiniBatch {
	mb := &MiniBatch{Seeds: seeds, Seed: batchSeed}
	dst := seeds
	var keys Keys // one key buffer for every biased draw of the batch
	blocks := make([]*Block, 0, cfg.Layers())
	for l := 0; l < cfg.Layers(); l++ {
		var block *Block
		if cfg.LayerWise {
			block = sampleLayerWise(d, &keys, g, dst, l, cfg, batchSeed)
		} else {
			block = sampleNodeWise(d, &keys, g, dst, l, cfg, batchSeed)
		}
		blocks = append(blocks, block)
		dst = block.InputNodes
	}
	// Reverse: Blocks[0] input-most.
	for i, j := 0, len(blocks)-1; i < j; i, j = i+1, j-1 {
		blocks[i], blocks[j] = blocks[j], blocks[i]
	}
	mb.Blocks = blocks
	return mb
}

// buildWith dispatches to the reusable Deduper when one is supplied.
func buildWith(d *Deduper, dst []graph.NodeID, counts []int32, samples []graph.NodeID) *Block {
	if d != nil {
		return d.BuildBlock(dst, counts, samples)
	}
	return BuildBlock(dst, counts, samples)
}

func sampleNodeWise(d *Deduper, keys *Keys, g graph.Topology, dst []graph.NodeID, layer int, cfg Config, batchSeed uint64) *Block {
	counts := make([]int32, len(dst))
	var samples []graph.NodeID
	fanout := cfg.Fanout[layer]
	ls := LayerSeed(batchSeed, layer)
	for i, v := range dst {
		before := len(samples)
		samples = DrawAdj(g.Neighbors(v), g.NeighborWeights(v), v, ls, fanout, cfg, samples, keys)
		counts[i] = int32(len(samples) - before)
	}
	return buildWith(d, dst, counts, samples)
}

// DrawAdj is THE local sampling kernel: it draws from an adjacency slice,
// seeding the generator with the node's GLOBAL id mixed into layerSeed, the
// batch's LayerSeed for this layer. The distributed CSP calls it with a
// patch-local adjacency slice but the global id, which makes its draws
// bit-identical to the single-address-space Reference sampler. keys is the
// caller's scratch for biased draws without replacement; draws with
// replacement never touch it, so they may pass nil.
func DrawAdj(adj []graph.NodeID, weights []float32, globalID graph.NodeID, layerSeed uint64, fanout int, cfg Config, out []graph.NodeID, keys *Keys) []graph.NodeID {
	// The generator lives in this frame: one per task on the hot path, so it
	// must not be a heap object (NodeSeed's *rng.RNG is for callers that keep
	// the stream).
	var gen rng.RNG
	gen.Seed(rng.MixStep(layerSeed, uint64(uint32(globalID))))
	r := &gen
	if cfg.Biased {
		if cfg.WithReplacement {
			return WeightedWithReplacement(r, adj, weights, fanout, out)
		}
		return Weighted(r, adj, weights, fanout, out, keys)
	}
	if cfg.WithReplacement {
		return UniformWithReplacement(r, adj, fanout, out)
	}
	return Uniform(r, adj, fanout, out)
}

// sampleLayerWise implements Eq. (2): split the layer budget across the
// frontier proportionally to neighbour weight mass, then node-wise sample
// the assigned counts.
func sampleLayerWise(d *Deduper, keys *Keys, g graph.Topology, dst []graph.NodeID, layer int, cfg Config, batchSeed uint64) *Block {
	masses := make([]float64, len(dst))
	for i, v := range dst {
		masses[i] = g.WeightSum(v)
	}
	budget := cfg.Fanout[layer]
	// The budget split is a per-(batch, layer) draw, not per-node.
	r := NodeSeed(batchSeed, layer, graph.NodeID(-1))
	var perNode []int
	if cfg.WithReplacement {
		perNode = LayerBudget(r, masses, budget)
	} else {
		capacity := make([]int, len(dst))
		for i, v := range dst {
			capacity[i] = g.Degree(v)
		}
		perNode = LayerBudgetWithoutReplacement(r, masses, capacity, budget)
	}
	counts := make([]int32, len(dst))
	var samples []graph.NodeID
	ls := LayerSeed(batchSeed, layer)
	for i, v := range dst {
		if perNode[i] == 0 {
			continue
		}
		before := len(samples)
		samples = DrawAdj(g.Neighbors(v), g.NeighborWeights(v), v, ls, perNode[i], cfg, samples, keys)
		counts[i] = int32(len(samples) - before)
	}
	return buildWith(d, dst, counts, samples)
}
