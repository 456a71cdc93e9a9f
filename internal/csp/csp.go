// Package csp implements the paper's Collective Sampling Primitive: graph
// sampling executed jointly by all GPUs on a topology partitioned across
// them.
//
// Each sampling layer runs in three stages:
//
//	shuffle   — every frontier node is sent to the GPU holding its
//	            adjacency list (a task of 8 bytes: node id + fan-out);
//	sample    — each GPU executes ALL tasks it received in one fused
//	            kernel, drawing neighbours from its local patch;
//	reshuffle — the sampled neighbour ids travel back to the requesting
//	            GPU, which assembles the mini-batch block.
//
// This is the task-push paradigm: only frontier ids and sampled ids cross
// the fabric, never adjacency lists. The PullData function implements the
// data-pull alternative (fetch whole adjacency + weight lists, sample
// locally) that Figure 11 compares against. RandomWalk implements walks as
// fan-out-1 sampling whose tasks migrate with the walk (no reshuffle).
//
// Sampling results are bit-identical to sample.Reference on the unpartitioned
// graph because every neighbour draw is seeded by (batch seed, layer, global
// node id) regardless of the executing GPU.
//
// A round allocates only what it hands on (the block's arrays): every other
// buffer belongs to the rank's roundScratch and is written again next round.
// That is safe because of one rule — a buffer posted to an all-to-all is read
// by peers until they finish the phase that consumes it, and this rank does
// not write it again before every rank has entered a later collective (see
// roundScratch). What it hands on it allocates only until the batch's last
// reader gives the batch back with Release: the next batch is rebuilt in the
// released one's arrays, so a steady-state round allocates nothing the
// caller releases.
package csp

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sample"
	"repro/internal/sim"
)

// PatchStore is one GPU's share of the partitioned topology: the adjacency
// lists of its owned id range, with local indptr and GLOBAL neighbour ids
// (the paper stores global ids to avoid converting sampled nodes back).
//
// OnHost is the adjacency position list of the paper's §6: when the
// topology-cache budget is smaller than the patch, the lowest-degree nodes'
// adjacency lists live in CPU memory and are read through UVA during the
// sample stage. GPUBytes is the device-resident share.
type PatchStore struct {
	Lo, Hi   graph.NodeID
	Adj      graph.CSR
	OnHost   []bool
	GPUBytes int64
	// Comp, when non-nil, is the patch's delta/varint encoding: the run was
	// built from a compressed topology, so resident bytes are charged at the
	// compressed size and every sampled row pays a decode kernel. The
	// in-process data plane stays the decoded Adj for correctness.
	Comp *graph.CompressedCSR
}

// rowBytes returns the device-resident size of local node v's adjacency row
// under the active representation.
func (ps *PatchStore) rowBytes(v graph.NodeID) int64 {
	if ps.Comp != nil {
		b := ps.Comp.NodeBytes(v)
		if ps.Comp.Weights != nil {
			b += int64(ps.Comp.Degree(v)) * 4
		}
		return b
	}
	perEdge := int64(4)
	if ps.Adj.Weights != nil {
		perEdge = 8
	}
	return int64(ps.Adj.Degree(v)) * perEdge
}

// applyBudget marks the lowest-degree nodes host-resident until the
// GPU-resident share fits budget (<=0 keeps everything on the GPU).
func (ps *PatchStore) applyBudget(budget int64) {
	n := ps.Adj.NumNodes()
	ps.OnHost = make([]bool, n)
	total := ps.Adj.TopologyBytes()
	if ps.Comp != nil {
		total = ps.Comp.TopologyBytes()
	}
	ps.GPUBytes = total
	if budget <= 0 || total <= budget {
		return
	}
	order := ps.Adj.NodesByDegreeDesc()
	// Walk from the hottest node down, keeping rows until budget runs out.
	used := int64(n+1) * 8 // indptr / position list stays resident
	for _, v := range order {
		rowBytes := ps.rowBytes(v)
		if used+rowBytes <= budget {
			used += rowBytes
		} else {
			ps.OnHost[v] = true
		}
	}
	ps.GPUBytes = used
}

// Local converts a global id owned by this patch to its local index.
func (ps *PatchStore) Local(v graph.NodeID) int32 { return int32(v - ps.Lo) }

// Neighbors returns the adjacency list of global node v (owned here).
func (ps *PatchStore) Neighbors(v graph.NodeID) []graph.NodeID {
	return ps.Adj.Neighbors(ps.Local(v))
}

// NeighborWeights returns the weight list of global node v (owned here).
func (ps *PatchStore) NeighborWeights(v graph.NodeID) []float32 {
	return ps.Adj.NeighborWeights(ps.Local(v))
}

// HostStore is the out-of-core tier's view from the sampler (implemented by
// internal/store): host-resident adjacency reads touch it — paying disk I/O
// and decode when the block is not resident — and each assembled layer's
// frontier feeds its proximity-aware prefetcher.
type HostStore interface {
	TouchTopology(p *sim.Proc, ids []graph.NodeID)
	PrefetchTopology(ids []graph.NodeID)
}

// World is the collective sampling state shared by all sampler workers.
type World struct {
	M       *hw.Machine
	Comm    *comm.Communicator
	Offsets []int64
	Patches []*PatchStore

	// hostStore, when set, is the out-of-core tier below host memory: UVA
	// reads of host-resident adjacency first ensure the backing block is in
	// the host block cache (fetching it from the spill device otherwise).
	hostStore HostStore

	// view, when set, enables degraded-mode sampling: tasks whose owner GPU
	// is dead are kept on the requesting GPU and executed against the host
	// master copy of the dead GPU's patch (charged as UVA reads), so sampling
	// results stay bit-identical while the fleet runs short-handed.
	view *fault.View

	// par offloads the owner-side neighbour draws to worker threads between
	// the shuffle and reshuffle commit points; scratch holds one reusable
	// round workspace per rank; dedup is the mark table every rank's block
	// assembly shares. All three are lazily built.
	par     *sim.ParallelGroup
	scratch []*roundScratch
	dedup   *sample.Deduper
}

// roundScratch is one rank's reusable workspace for sampling rounds: after a
// warm-up batch a round allocates only the arrays its block keeps.
//
// The reuse rule. A buffer posted to an all-to-all is read by peers until
// they finish the phase that consumes it, and every rank has passed a LATER
// collective's first arrive before this rank writes the buffer again — so one
// set per rank suffices, with no double buffering:
//
//   - outTasks (posted by the shuffle) is read by each owner's draw unit and
//     charge loop, both of which end before that owner enters the reshuffle;
//     this rank refills it at the start of its next round, after it has
//     itself left the reshuffle.
//   - replyCounts/replySamples (posted by the reshuffle) are read by each
//     requester's assembly, which copies out of them in the instant the
//     reshuffle releases it; this rank's next draw unit, which refills them,
//     starts only after the next shuffle.
//
// Two things keep the rule true when a round does not reach its end. The
// draw unit runs on a worker thread, reading peers' task buffers and writing
// this rank's reply buffers, so sampleLayer joins it on every way out of the
// frame — a kill unwinds through it — and no unit outlives its round. And
// when a membership change voids the attempt, a rank may unwind out of a
// collective and start its retry while a peer still sleeps in the old
// attempt's sample window, its unit reading the tasks this rank posted: open
// marks a round that began and did not end, and the next round then leaves
// the old task buffers to their readers and appends to fresh ones. It
// leaves the old receive tables (inTasks, backCounts, backSamples) behind
// the same way.
//
// start, order and layerSeed (the draw order's buckets and tasks, and each
// requester's seed prefix for the layer) belong to the draw unit alone: it is
// their only reader and writer, and it is joined on every way out of the
// frame, so no two units ever share them. Everything else (counts, owner,
// cur, hostNodes, outCounts, ahead, peerSeed, samples, the receive tables) is
// read by this rank alone. A Clone starts with no scratch, so every
// multi-instance sampler world owns its own.
//
// The mark table is not in the workspace: the world's one Deduper serves
// every rank, because a build runs on the engine thread from start to end —
// in a process body, never in a draw unit, and without parking — so no two
// ranks' builds interleave, and each leaves the table zeroed for the next.
// One table instead of one per rank keeps the randomly read working set
// numNodes entries whatever the rank count.
//
// The release rule. free holds the batches this rank's last readers handed
// back with Release; the next batch pops one and is rebuilt in its arrays.
// A block's arrays are never posted to a collective (the shuffle copies the
// frontier into tasks, the assembly copies replies out), so a released batch
// is read by nobody here — the caller promises the same of itself: a batch
// is released once, by its last reader, and is never read again. A reader
// that cannot promise it (a serving round some attempt of which aborted,
// leaving a staged gather behind) drops the batch instead.
type roundScratch struct {
	free []*sample.MiniBatch
	open bool // a round began and has not left its reshuffle
	// counts is the node-wise fan-out per frontier node; outTasks[o] the
	// tasks routed to owner o; owner[i] the owner frontier node i's task went
	// to (-1: no task). Owner o answers its tasks in posting order, which is
	// frontier order, so cur[o] — the next reply index and its sample offset
	// — is all the assembly needs to find node i's samples.
	counts   []int32
	outTasks [][]task
	owner    []int8
	cur      []replyCursor

	replyCounts  [][]int32
	replySamples [][]graph.NodeID
	start        []int32   // draw-order bucket offsets (see drawTasks)
	order        []drawRef // received tasks in draw order

	// inTasks, backCounts and backSamples are the tables the shuffle and
	// the reshuffle receive into. draw is the draw unit, bound to this
	// workspace once; drawCfg and drawLayer name the layer it draws.
	inTasks     [][]task
	backCounts  [][]int32
	backSamples [][]graph.NodeID
	draw        func()
	drawCfg     sample.Config
	drawLayer   int

	hostNodes []graph.NodeID
	outCounts []int32
	samples   []graph.NodeID // the assembled layer, before Rebuild copies it
	ahead     []graph.NodeID // next frontier's host-resident rows (prefetch)
	peerSeed  []uint64
	// sent and seeds are the batch-seed exchange's send slots and receive
	// table. Sends alternate between the slots: a peer may still read this
	// rank's last seed once the rank has posted the next, but never once it
	// has posted two, because the second exchange waits for that peer.
	sent      [2]uint64
	sends     int
	seeds     [][]uint64
	layerSeed []uint64    // sample.LayerSeed of each peerSeed for the drawn layer
	keys      sample.Keys // biased draws' selection keys
	rows      sample.Rows // node-wise uniform draws of own-patch rows, eight a pass
}

// Release hands rank's batch mb, sampled on this world, back to the world:
// the rank's next batch is built in its arrays. The caller must be mb's last
// reader — nothing may read mb, its blocks or their arrays afterwards.
func (w *World) Release(rank int, mb *sample.MiniBatch) {
	s := w.scratchOf(rank)
	s.free = append(s.free, mb)
}

// batch returns the batch rank's next sample is built in, with layers blocks
// in sampling order (output-most first): the last released batch, cleared,
// or a new one.
func (s *roundScratch) batch(layers int) *sample.MiniBatch {
	var mb *sample.MiniBatch
	if k := len(s.free); k > 0 {
		mb = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		*mb = sample.MiniBatch{Blocks: mb.Blocks}
		slices.Reverse(mb.Blocks)
	} else {
		mb = &sample.MiniBatch{Blocks: make([]*sample.Block, 0, layers)}
	}
	for len(mb.Blocks) < layers {
		mb.Blocks = append(mb.Blocks, new(sample.Block))
	}
	mb.Blocks = mb.Blocks[:layers]
	return mb
}

// replyCursor walks one owner's reply: the next task's index into its count
// list and where that task's samples start.
type replyCursor struct{ next, off int32 }

// resized returns s with length n, reusing its storage when it is large
// enough; the contents are unspecified.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// group lazily binds the world to the engine's parallel worker budget.
func (w *World) group() *sim.ParallelGroup {
	if w.par == nil {
		w.par = w.M.Eng.NewParallelGroup()
	}
	return w.par
}

// scratchOf returns rank's reusable round workspace.
func (w *World) scratchOf(rank int) *roundScratch {
	if w.scratch == nil {
		w.scratch = make([]*roundScratch, w.Comm.N)
	}
	if w.scratch[rank] == nil {
		n := w.Comm.N
		s := &roundScratch{
			outTasks:     make([][]task, n),
			cur:          make([]replyCursor, n),
			replyCounts:  make([][]int32, n),
			replySamples: make([][]graph.NodeID, n),
			peerSeed:     make([]uint64, n),
			layerSeed:    make([]uint64, n),
		}
		s.draw = func() { w.drawTasks(s, rank, s.inTasks, s.drawCfg, s.drawLayer) }
		w.scratch[rank] = s
	}
	return w.scratch[rank]
}

// deduper returns the world's block-assembly mark table, sized for every
// global id.
func (w *World) deduper() *sample.Deduper {
	if w.dedup == nil {
		w.dedup = sample.NewDeduper(int(w.Offsets[len(w.Offsets)-1]))
	}
	return w.dedup
}

// SetHostStore attaches the out-of-core tier (nil detaches it).
func (w *World) SetHostStore(hs HostStore) { w.hostStore = hs }

// hostResident reports whether reading v's adjacency goes through host
// memory: its owner is dead (degraded mode) or its row was spilled by the
// topology budget. The prefetcher uses it to walk the next sampling frontier
// without issuing fetches for GPU-resident rows.
func (w *World) hostResident(v graph.NodeID) bool {
	o := w.Owner(v)
	if w.view != nil && !w.view.Alive(o) {
		return true
	}
	ps := w.Patches[o]
	return ps.OnHost != nil && ps.OnHost[ps.Local(v)]
}

// SetView makes the world fleet-membership-aware: its communicator
// synchronises over live ranks only, and sampling tasks owned by dead GPUs
// fall back to the requester's cold path.
func (w *World) SetView(v *fault.View) {
	w.view = v
	w.Comm.SetView(v)
}

// routeOwner returns the GPU a task for node v is sent to: the owner, or the
// requester itself when the owner is dead (cold-path fallback).
func (w *World) routeOwner(v graph.NodeID, rank int) int {
	o := w.Owner(v)
	if w.view != nil && !w.view.Alive(o) {
		return rank
	}
	return o
}

// NewWorld partitions a layout-ordered graph into per-GPU patches and
// reserves device memory for them. The graph must already be renumbered so
// GPU g owns ids [offsets[g], offsets[g+1]).
func NewWorld(m *hw.Machine, g graph.Topology, offsets []int64) (*World, error) {
	return NewWorldBudget(m, g, offsets, 0)
}

// NewWorldBudget is NewWorld with a per-GPU topology-cache budget in bytes:
// patches larger than the budget keep their hottest adjacency lists on the
// GPU and leave the rest in CPU memory, accessed via UVA during sampling
// (budget <= 0 caches the full patch). This enables the Figure 10
// topology/feature cache-split experiment.
//
// When g is a *graph.CompressedCSR the patches stay compressed on the GPU:
// resident bytes are charged at the encoded size and the sample stage pays a
// decode kernel per accessed row.
func NewWorldBudget(m *hw.Machine, g graph.Topology, offsets []int64, topoBudget int64) (*World, error) {
	n := len(m.GPUs)
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("csp: %d offsets for %d GPUs", len(offsets), n)
	}
	_, compressed := g.(*graph.CompressedCSR)
	w := &World{M: m, Comm: comm.New(m), Offsets: offsets}
	for gpu := 0; gpu < n; gpu++ {
		lo, hi := graph.NodeID(offsets[gpu]), graph.NodeID(offsets[gpu+1])
		nodes := make([]graph.NodeID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			nodes = append(nodes, v)
		}
		patch := graph.ExtractPatch(g, nodes)
		ps := &PatchStore{Lo: lo, Hi: hi, Adj: patch.Adj}
		if compressed {
			ps.Comp = graph.Compress(&ps.Adj)
		}
		ps.applyBudget(topoBudget)
		if err := m.GPUs[gpu].Reserve(ps.GPUBytes); err != nil {
			return nil, fmt.Errorf("csp: patch for GPU %d: %w", gpu, err)
		}
		w.Patches = append(w.Patches, ps)
	}
	return w, nil
}

// TopologyResidentBytes sums the per-GPU device-resident topology bytes —
// the compressed encoding when the world was built from one. The memory side
// of the compression frontier.
func (w *World) TopologyResidentBytes() int64 {
	var b int64
	for _, ps := range w.Patches {
		b += ps.GPUBytes
	}
	return b
}

// Owner returns the GPU owning global node v. It counts the inner partition
// boundaries at or below v (<= 7 of them) rather than returning from the
// first range that fits: owners of a frontier are data-random, and a counted
// compare does not mispredict on them.
func (w *World) Owner(v graph.NodeID) int {
	id := int64(v)
	last := len(w.Offsets) - 1
	if id < w.Offsets[0] || id >= w.Offsets[last] {
		panic(fmt.Sprintf("csp: node %d out of range", v))
	}
	g := 0
	for _, off := range w.Offsets[1:last] {
		if id >= off {
			g++
		}
	}
	return g
}

// patchOf returns the patch holding v's adjacency as seen from rank: rank's
// own for every task routed normally, the owner's (the host master copy of a
// dead GPU's patch) for tasks kept back in degraded mode.
func (w *World) patchOf(v graph.NodeID, rank int) *PatchStore {
	if ps := w.Patches[rank]; v >= ps.Lo && v < ps.Hi {
		return ps
	}
	return w.Patches[w.Owner(v)]
}

// task is a shuffled sampling request: draw Count neighbours of Node.
type task struct {
	Node  graph.NodeID
	Count int32
}

const taskBytes = 8
const idBytes = 4

// Clone returns a view of the world sharing the topology patches but with
// its own communicator — one per sampler worker instance when the pipeline
// runs multiple samplers (each worker group needs its own NCCL
// communicator, as in the real system).
func (w *World) Clone() *World {
	return &World{M: w.M, Comm: comm.New(w.M), Offsets: w.Offsets, Patches: w.Patches,
		hostStore: w.hostStore}
}

// SampleBatch collectively samples a mini-batch for this rank's seeds.
// All ranks must call it together (same cfg); ranks with no seeds this step
// pass an empty slice but still serve remote tasks. batchSeed is this rank's
// own batch seed.
func (w *World) SampleBatch(p *sim.Proc, rank int, seeds []graph.NodeID, cfg sample.Config, batchSeed uint64) *sample.MiniBatch {
	return w.sampleBatch(p, rank, seeds, cfg, batchSeed, true)
}

// SampleBatchUnfused is the asynchronous-operation alternative discussed in
// §4.1: instead of executing all received tasks of a layer in one fused
// kernel, each task launches its own small kernel. The paper observes this
// design "has poor efficiency as the communication and sampling tasks of a
// single GPU are small" — the per-kernel launch overhead dominates.
func (w *World) SampleBatchUnfused(p *sim.Proc, rank int, seeds []graph.NodeID, cfg sample.Config, batchSeed uint64) *sample.MiniBatch {
	return w.sampleBatch(p, rank, seeds, cfg, batchSeed, false)
}

// SampleBatchShared is SampleBatch for callers whose ranks already agree on
// one batch seed (e.g. the serving path, where a central controller stamps
// each dispatch round): it skips the seed AllGather — one less collective
// per round on the latency-critical path — and otherwise runs the identical
// shuffle/sample/reshuffle sequence. All ranks must call it together with
// the same sharedSeed.
func (w *World) SampleBatchShared(p *sim.Proc, rank int, seeds []graph.NodeID, cfg sample.Config, sharedSeed uint64) *sample.MiniBatch {
	peerSeed := w.scratchOf(rank).peerSeed
	for q := range peerSeed {
		peerSeed[q] = sharedSeed
	}
	return w.sampleLayers(p, rank, seeds, cfg, sharedSeed, true)
}

func (w *World) sampleBatch(p *sim.Proc, rank int, seeds []graph.NodeID, cfg sample.Config, batchSeed uint64, fused bool) *sample.MiniBatch {
	w.exchangeSeeds(p, rank, batchSeed)
	return w.sampleLayers(p, rank, seeds, cfg, batchSeed, fused)
}

// exchangeSeeds gathers every rank's batch seed into rank's peerSeed table,
// so owners can seed draws for any requester, and returns the table.
func (w *World) exchangeSeeds(p *sim.Proc, rank int, batchSeed uint64) []uint64 {
	s := w.scratchOf(rank)
	i := s.sends % 2
	s.sends++
	s.sent[i] = batchSeed
	s.seeds = comm.AllGather(w.Comm, p, rank, s.sent[i:i+1], s.seeds, comm.Raw(8, hw.TrafficOther))
	for q := range s.peerSeed {
		s.peerSeed[q] = s.seeds[q][0]
	}
	return s.peerSeed
}

// sampleLayers runs the rounds of one batch; the caller has filled the rank's
// peerSeed table (whose seed each requester's draws take).
func (w *World) sampleLayers(p *sim.Proc, rank int, seeds []graph.NodeID, cfg sample.Config, batchSeed uint64, fused bool) *sample.MiniBatch {
	s := w.scratchOf(rank)
	mb := s.batch(cfg.Layers())
	mb.Seeds, mb.Seed = seeds, batchSeed
	dst := seeds
	for l, block := range mb.Blocks {
		var counts []int32
		if cfg.LayerWise {
			info := w.fetchMasses(p, rank, dst)
			counts = layerCounts(dst, info, cfg, l, batchSeed)
		} else {
			s.counts = resized(s.counts, len(dst))
			counts = s.counts
			for i := range counts {
				counts[i] = int32(cfg.Fanout[l])
			}
		}
		w.sampleLayer(p, rank, dst, counts, cfg, l, fused, block)
		dst = block.InputNodes
		// Proximity-aware prefetch (BGL-style): the next layer will read the
		// adjacency of this frontier, so warm the out-of-core tier for its
		// host-resident rows while this rank continues sampling.
		if w.hostStore != nil && l+1 < cfg.Layers() {
			ahead := s.ahead[:0]
			for _, v := range dst {
				if w.hostResident(v) {
					ahead = append(ahead, v)
				}
			}
			s.ahead = ahead
			if len(ahead) > 0 {
				w.hostStore.PrefetchTopology(ahead)
			}
		}
	}
	slices.Reverse(mb.Blocks)
	return mb
}

// massInfo carries a frontier node's neighbour weight mass and degree back
// to the requester for the layer-wise budget split.
type massInfo struct {
	Mass float64
	Deg  int32
}

const massInfoBytes = 12

// layerCounts performs the Eq. (2) budget split locally on the requester.
func layerCounts(dst []graph.NodeID, info []massInfo, cfg sample.Config, layer int, batchSeed uint64) []int32 {
	r := sample.NodeSeed(batchSeed, layer, graph.NodeID(-1))
	budget := cfg.Fanout[layer]
	masses := make([]float64, len(dst))
	for i := range info {
		masses[i] = info[i].Mass
	}
	var perNode []int
	if cfg.WithReplacement {
		perNode = sample.LayerBudget(r, masses, budget)
	} else {
		capacity := make([]int, len(dst))
		for i := range info {
			capacity[i] = int(info[i].Deg)
		}
		perNode = sample.LayerBudgetWithoutReplacement(r, masses, capacity, budget)
	}
	counts := make([]int32, len(dst))
	for i, c := range perNode {
		counts[i] = int32(c)
	}
	return counts
}

// fetchMasses retrieves each frontier node's neighbour weight mass and
// degree from its owner (one round of shuffle/reply with tiny payloads).
func (w *World) fetchMasses(p *sim.Proc, rank int, dst []graph.NodeID) []massInfo {
	n := w.Comm.N
	outIDs := make([][]graph.NodeID, n)
	where := make([][2]int32, len(dst)) // (owner, index in owner's list)
	for i, v := range dst {
		o := w.routeOwner(v, rank)
		where[i] = [2]int32{int32(o), int32(len(outIDs[o]))}
		outIDs[o] = append(outIDs[o], v)
	}
	inIDs := comm.AllToAll(w.Comm, p, rank, outIDs, comm.Raw(idBytes, hw.TrafficSample))
	// Owner side: compute masses with a small kernel. Nodes of a dead GPU's
	// patch are looked up in the host master copy (one UVA item each).
	replies := make([][]massInfo, n)
	var work, hostItems int64
	var hostNodes []graph.NodeID
	for q := 0; q < n; q++ {
		work += int64(len(inIDs[q]))
		for _, v := range inIDs[q] {
			if w.Owner(v) != rank {
				hostItems++
				hostNodes = append(hostNodes, v)
			}
		}
	}
	if work > 0 {
		w.M.GPUs[rank].RunKernel(p, hw.KernelSample, work)
	}
	if len(hostNodes) > 0 && w.hostStore != nil {
		w.hostStore.TouchTopology(p, hostNodes)
	}
	if hostItems > 0 {
		w.M.GPUs[rank].UVARead(p, w.M.Fabric, hostItems, massInfoBytes, hw.TrafficSample)
	}
	for q := 0; q < n; q++ {
		replies[q] = make([]massInfo, len(inIDs[q]))
		for i, v := range inIDs[q] {
			ps := w.Patches[w.Owner(v)]
			lv := ps.Local(v)
			replies[q][i] = massInfo{Mass: ps.Adj.WeightSum(lv), Deg: int32(ps.Adj.Degree(lv))}
		}
	}
	back := comm.AllToAll(w.Comm, p, rank, replies, comm.Raw(massInfoBytes, hw.TrafficSample))
	info := make([]massInfo, len(dst))
	for i := range dst {
		o, j := where[i][0], where[i][1]
		info[i] = back[o][j]
	}
	return info
}

// drawRef is a received task in the owner's draw order: requester q's i-th
// task, whose samples are drawn at off in q's reply buffer.
type drawRef struct {
	task
	q, i, off int32
}

// drawTasks is the owner's fused kernel: it draws every task rank received,
// from every requester, and leaves each requester's reply in
// s.replyCounts/s.replySamples in posting order, which the assembly walks.
//
// A draw depends on (requester seed, layer, node, count, row) alone, so the
// tasks run in adjacency order instead: a counting pass on patch-local id
// puts them in buckets of 2^shift nodes, and each draws into the slots its
// requester's reply reserves for it (a task yields at most Count ids). Rows
// are then read in memory order, and a node several requesters asked for is
// drawn back to back. shift gives about one bucket per task, so the pass is
// O(tasks) — exact order once the tasks outnumber the patch's nodes, no
// patch-sized table for a round of a few tasks. Tasks outside the patch (a
// dead GPU's, in degraded mode) share one last bucket. Node-wise uniform
// draws of the patch's own rows go through sample.Rows, which draws them
// eight at a time; every other task through DrawAdj. Packing each reply
// closes the gaps of tasks that drew fewer than Count ids.
func (w *World) drawTasks(s *roundScratch, rank int, inTasks [][]task, cfg sample.Config, layer int) {
	ps := w.Patches[rank]
	span := int(ps.Hi - ps.Lo)
	var tasks int
	for _, ts := range inTasks {
		tasks += len(ts)
	}
	shift := max(bits.Len(uint(span))-bits.Len(uint(tasks)), 0)
	outside := (span + 1<<shift - 1) >> shift // the out-of-patch bucket
	bucket := func(v graph.NodeID) int {
		if v < ps.Lo || v >= ps.Hi {
			return outside
		}
		return int(v-ps.Lo) >> shift
	}
	// start[b+1] counts bucket b's tasks, then start[b] is where it begins.
	start := resized(s.start, outside+2)
	clear(start)
	for q, ts := range inTasks {
		s.layerSeed[q] = sample.LayerSeed(s.peerSeed[q], layer)
		var total int
		for _, t := range ts {
			total += int(t.Count)
			start[bucket(t.Node)+1]++
		}
		s.replyCounts[q] = resized(s.replyCounts[q], len(ts))
		s.replySamples[q] = resized(s.replySamples[q], total)
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	order := resized(s.order, tasks)
	for q, ts := range inTasks {
		var off int32
		for i, t := range ts {
			b := bucket(t.Node)
			order[start[b]] = drawRef{t, int32(q), int32(i), off}
			start[b]++
			off += t.Count
		}
	}
	uniform := !cfg.Biased && !cfg.WithReplacement && !cfg.LayerWise
	for _, d := range order {
		if uniform && d.Node >= ps.Lo && d.Node < ps.Hi {
			s.replyCounts[d.q][d.i] = int32(s.rows.Add(ps.Neighbors(d.Node), d.Node, s.layerSeed[d.q],
				int(d.Count), s.replySamples[d.q][d.off:d.off+d.Count]))
			continue
		}
		tps := w.patchOf(d.Node, rank)
		got := sample.DrawAdj(tps.Neighbors(d.Node), tps.NeighborWeights(d.Node),
			d.Node, s.layerSeed[d.q], int(d.Count), cfg, s.replySamples[d.q][:d.off], &s.keys)
		s.replyCounts[d.q][d.i] = int32(len(got)) - d.off
	}
	s.rows.Flush()
	for q, ts := range inTasks {
		buf, rc := s.replySamples[q], s.replyCounts[q]
		var to, from int32
		for i, t := range ts {
			k := rc[i]
			if to != from {
				copy(buf[to:to+k], buf[from:from+k])
			}
			to += k
			from += t.Count
		}
		s.replySamples[q] = buf[:to]
	}
	s.start, s.order = start, order
}

// sampleLayer runs one shuffle/sample/reshuffle round and assembles the
// requester-side block into block. fused selects one kernel for all received
// tasks (DSP's design) versus one kernel per task (the async alternative).
// Every buffer but the block's own arrays comes from the rank's roundScratch.
func (w *World) sampleLayer(p *sim.Proc, rank int, dst []graph.NodeID, counts []int32, cfg sample.Config, layer int, fused bool, block *sample.Block) {
	n := w.Comm.N
	dev := w.M.GPUs[rank]
	s := w.scratchOf(rank)

	// --- shuffle: route tasks to owners -------------------------------
	outTasks := s.outTasks
	for o := range outTasks {
		if s.open {
			outTasks[o] = nil
		} else {
			outTasks[o] = outTasks[o][:0]
		}
	}
	if s.open {
		s.inTasks, s.backCounts, s.backSamples = nil, nil, nil
	}
	s.open = true
	s.owner = resized(s.owner, len(dst))
	owner := s.owner
	for i, v := range dst {
		if counts[i] <= 0 {
			owner[i] = -1
			continue
		}
		o := w.routeOwner(v, rank)
		owner[i] = int8(o)
		outTasks[o] = append(outTasks[o], task{Node: v, Count: counts[i]})
	}
	s.inTasks = comm.AllToAllInto(w.Comm, p, rank, outTasks, s.inTasks, comm.Raw(taskBytes, hw.TrafficSample))
	inTasks := s.inTasks

	// --- sample: one fused kernel over every received task ------------
	// The actual neighbour draws are pure data work (each draw is seeded by
	// (requester seed, layer, node id), independent of execution order), so
	// they are offloaded to the worker pool here and joined at the
	// reshuffle commit point below; the timed kernel/UVA charges in between
	// overlap the draws in real time.
	s.drawCfg, s.drawLayer = cfg, layer
	draws := w.group().Submit(s.draw)
	// No unit outlives its round, however the frame is left (a kill unwinds
	// through here): it reads peers' task buffers and writes this rank's
	// reply buffers, and both are written again next round.
	defer draws.Join()
	var fusedWork, hostItems, decodeBytes int64
	hostNodes := s.hostNodes[:0]
	for q := 0; q < n; q++ {
		for _, t := range inTasks[q] {
			fusedWork += int64(t.Count)
			tps := w.patchOf(t.Node, rank)
			if tps.Comp != nil {
				decodeBytes += tps.Comp.NodeBytes(tps.Local(t.Node))
			}
			if tps != w.Patches[rank] || (tps.OnHost != nil && tps.OnHost[tps.Local(t.Node)]) {
				// Host-resident adjacency — either spilled by the topology
				// budget or belonging to a dead GPU's patch (degraded mode
				// reads the host master copy): the kernel reads the sampled
				// entries (plus the position lookup) through UVA.
				hostItems += int64(t.Count) + 1
				hostNodes = append(hostNodes, t.Node)
			}
		}
	}
	s.hostNodes = hostNodes
	if len(hostNodes) > 0 && w.hostStore != nil {
		// The out-of-core tier sits below host memory: host-resident rows
		// whose backing block was spilled to disk must be fetched (and
		// decoded) into the host block cache before the UVA read can serve.
		w.hostStore.TouchTopology(p, hostNodes)
	}
	if hostItems > 0 {
		dev.UVARead(p, w.M.Fabric, hostItems, 4, hw.TrafficSample)
	}
	if decodeBytes > 0 {
		// Compressed patches pay the varint expansion of every accessed row.
		dev.RunKernel(p, hw.KernelDecode, decodeBytes)
	}
	if fused {
		if fusedWork > 0 {
			dev.RunKernel(p, hw.KernelSample, fusedWork)
		}
	} else {
		for q := 0; q < n; q++ {
			for _, t := range inTasks[q] {
				dev.RunKernel(p, hw.KernelSample, int64(t.Count))
			}
		}
	}
	// --- reshuffle: results travel back to requesters ------------------
	draws.Join() // commit point: replyCounts/replySamples valid from here
	s.backCounts = comm.AllToAllInto(w.Comm, p, rank, s.replyCounts, s.backCounts, comm.Raw(4, hw.TrafficSample))
	s.backSamples = comm.AllToAllInto(w.Comm, p, rank, s.replySamples, s.backSamples, comm.Raw(idBytes, hw.TrafficSample))
	s.open = false // every rank entered the reshuffle: no draw unit is left
	backCounts, backSamples := s.backCounts, s.backSamples

	// --- assembly on the requester -------------------------------------
	var total int
	for o := range backSamples {
		total += len(backSamples[o])
	}
	samples := slices.Grow(s.samples[:0], total)
	clear(s.cur)
	s.outCounts = resized(s.outCounts, len(dst))
	outCounts := s.outCounts
	for i, o := range owner {
		if o < 0 {
			outCounts[i] = 0
			continue
		}
		c := &s.cur[o]
		k := backCounts[o][c.next]
		samples = append(samples, backSamples[o][c.off:c.off+k]...)
		outCounts[i] = k
		c.next++
		c.off += k
	}
	s.samples = samples
	// The block-assembly kernel (unique + index building) is bandwidth
	// work proportional to the gathered ids.
	if len(samples) > 0 {
		dev.RunKernel(p, hw.KernelGather, int64(len(samples))*16)
	}
	w.deduper().Rebuild(block, dst, outCounts, samples)
}
