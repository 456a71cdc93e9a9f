// Package store is the out-of-core graph tier below the host: when a graph's
// topology and feature rows exceed host memory, fixed-size node-range blocks
// spill to a simulated NVMe/disk device (internal/hw.SpillDevice) and an
// LRU-resident block cache under a byte budget serves reads.
//
// The tier sits UNDER the existing hierarchy — GPU caches miss to host
// memory, and host memory itself is now a block cache over the spill device.
// A demand read of a non-resident block stalls the reader for the device I/O
// (plus varint decode for compressed topology blocks); the BGL-style
// proximity-aware prefetcher instead walks the sampling frontier — each
// assembled layer's input nodes are the next layer's adjacency reads, and a
// sampled mini-batch's input nodes are the loader's feature reads — fetching
// likely-next blocks in background procs so the I/O overlaps compute.
//
// Everything is deterministic virtual time: same seed, same flags,
// byte-identical counters.
package store

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Config tunes the out-of-core tier.
type Config struct {
	// BlockNodes is the node-range width of one block (topology and feature
	// tiers both; default 4096).
	BlockNodes int
	// CacheBytes is the host block-cache budget. <=0 selects half the total
	// block bytes — enough to force real spill traffic on any graph.
	CacheBytes int64
	// Prefetch enables the proximity-aware prefetcher.
	Prefetch bool
	// MaxInflight bounds concurrent background prefetch fetches (default 4).
	MaxInflight int
	// Spill is the backing device (zero value = hw.NVMeSpill).
	Spill hw.SpillSpec
	// DecodeRate is the host-side decode throughput for compressed topology
	// blocks in bytes/second (default 2 GB/s; only charged when the topology
	// is compressed).
	DecodeRate float64
	// LatencyScale divides the spill device's fixed per-read latency, the
	// same scaling the fabric applies for shrunk benchmark runs.
	LatencyScale float64
}

// Stats is the tier's cumulative accounting.
type Stats struct {
	// Blocks and BlockBytes describe the whole block table; TopoBlocks of
	// the blocks cover topology, the rest feature rows.
	Blocks     int
	TopoBlocks int
	BlockBytes int64
	// Compressed records whether topology blocks store the varint encoding.
	Compressed bool
	// CacheBytes is the resolved host block-cache budget.
	CacheBytes int64
	// ResidentBytes is the block bytes currently in the host cache;
	// SpilledBytes is the remainder living only on the spill device.
	ResidentBytes int64
	SpilledBytes  int64
	// Hits count block touches served from (or overlapped into) the cache;
	// Misses stalled on a demand fetch.
	Hits, Misses int64
	// DemandBytes were fetched inline by stalled readers; PrefetchBytes by
	// the background prefetcher.
	DemandBytes, PrefetchBytes int64
	// PrefetchIssued counts background fetches started; PrefetchUsed those
	// whose block was touched by a reader before eviction. Used/Issued is
	// the prefetch accuracy.
	PrefetchIssued, PrefetchUsed int64
	// StallTime is virtual time readers spent blocked on fetches.
	StallTime sim.Time
	// DeviceReads/DeviceBytes are the spill device's totals.
	DeviceReads, DeviceBytes int64
}

// HitRate returns Hits/(Hits+Misses), 0 when untouched.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// PrefetchAccuracy returns PrefetchUsed/PrefetchIssued, 0 when idle.
func (s Stats) PrefetchAccuracy() float64 {
	if s.PrefetchIssued == 0 {
		return 0
	}
	return float64(s.PrefetchUsed) / float64(s.PrefetchIssued)
}

// block is one node-range block's cache state.
type block struct {
	bytes    int64
	resident bool
	// inflight is non-nil while a fetch is in progress; waiters block on it.
	inflight *sim.Event
	// viaPrefetch marks a block fetched by the prefetcher and not yet
	// touched by a reader (the accuracy numerator counts its first touch).
	viaPrefetch bool
	lastUse     int64
}

// Store is the out-of-core block tier for one machine's graph.
type Store struct {
	eng *sim.Engine
	dev *hw.SpillDevice
	cfg Config

	blocks     []block
	nTopo      int
	blockNodes int
	compressed bool
	decodeRate float64
	totalBytes int64
	resident   int64

	inflightPrefetch int
	// pending queues predicted blocks awaiting a prefetch slot; fetch
	// completions drain it, so MaxInflight bounds concurrency, not coverage.
	pending []int
	clock   int64
	stats   Stats
	// seen[b] == gen marks block b as listed by the current uniqueBlocks call.
	seen []uint32
	gen  uint32
}

// New builds the block table over a topology plus featRows feature rows of
// rowBytes each (featRows 0 = topology only). The cache starts cold: every
// block begins on the spill device and the first epoch's reads warm it.
func New(eng *sim.Engine, topo graph.Topology, featRows, rowBytes int, cfg Config) (*Store, error) {
	if topo == nil {
		return nil, fmt.Errorf("store: nil topology")
	}
	if cfg.BlockNodes <= 0 {
		cfg.BlockNodes = 4096
	}
	comp, isComp := topo.(*graph.CompressedCSR)
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.DecodeRate <= 0 {
		cfg.DecodeRate = 2e9
	}
	s := &Store{
		eng: eng, dev: hw.NewSpillDevice(eng, cfg.Spill, cfg.LatencyScale),
		cfg: cfg, blockNodes: cfg.BlockNodes, compressed: isComp,
		decodeRate: cfg.DecodeRate,
	}
	n := topo.NumNodes()
	for lo := 0; lo < n; lo += cfg.BlockNodes {
		hi := lo + cfg.BlockNodes
		if hi > n {
			hi = n
		}
		var b int64
		if isComp {
			b = comp.RangeBytes(graph.NodeID(lo), graph.NodeID(hi))
		} else {
			b = topo.(*graph.CSR).RangeBytes(graph.NodeID(lo), graph.NodeID(hi))
		}
		s.blocks = append(s.blocks, block{bytes: b})
		s.totalBytes += b
	}
	s.nTopo = len(s.blocks)
	for lo := 0; lo < featRows; lo += cfg.BlockNodes {
		hi := lo + cfg.BlockNodes
		if hi > featRows {
			hi = featRows
		}
		b := int64(hi-lo) * int64(rowBytes)
		s.blocks = append(s.blocks, block{bytes: b})
		s.totalBytes += b
	}
	s.seen = make([]uint32, len(s.blocks))
	if s.cfg.CacheBytes <= 0 {
		s.cfg.CacheBytes = s.totalBytes / 2
	}
	s.stats.Blocks = len(s.blocks)
	s.stats.TopoBlocks = s.nTopo
	s.stats.BlockBytes = s.totalBytes
	s.stats.Compressed = isComp
	s.stats.CacheBytes = s.cfg.CacheBytes
	return s, nil
}

// CacheBytes returns the resolved host block-cache budget.
func (s *Store) CacheBytes() int64 { return s.cfg.CacheBytes }

// Stats returns a snapshot of the cumulative accounting.
func (s *Store) Stats() Stats {
	st := s.stats
	st.ResidentBytes = s.resident
	st.SpilledBytes = s.totalBytes - s.resident
	st.DeviceReads = s.dev.Reads
	st.DeviceBytes = s.dev.BytesRead
	return st
}

// TouchTopology implements csp.HostStore: before host memory serves the
// adjacency rows of ids, their backing blocks must be cache-resident;
// non-resident blocks stall the caller for the spill fetch (and decode).
func (s *Store) TouchTopology(p *sim.Proc, ids []graph.NodeID) {
	s.Touch(p, s.uniqueBlocks(nil, ids, 0, s.nTopo))
}

// PrefetchTopology implements csp.HostStore: fetch the blocks backing ids in
// background procs so a later touch finds them resident or in flight.
func (s *Store) PrefetchTopology(ids []graph.NodeID) {
	s.Prefetch(s.uniqueBlocks(nil, ids, 0, s.nTopo))
}

// FeatureBlocks appends to dst the feature-tier blocks backing the rows ids
// (the loader's UVA host reads), each once, in first-appearance order, and
// returns the extended slice: the list Touch and Prefetch take.
func (s *Store) FeatureBlocks(dst []int, ids []graph.NodeID) []int {
	return s.uniqueBlocks(dst, ids, s.nTopo, len(s.blocks)-s.nTopo)
}

// Touch makes blocks bs resident before host memory serves their rows,
// stalling the caller on each non-resident block's spill fetch (and decode).
// bs must stay unchanged until Touch returns.
func (s *Store) Touch(p *sim.Proc, bs []int) {
	for _, b := range bs {
		s.ensure(p, b)
	}
}

// uniqueBlocks appends to dst the blocks backing ids in a tier of nBlocks
// blocks starting at base, deduplicated in first-appearance order —
// deterministic for a deterministic id stream — and returns the extended
// slice. A block is listed once per call: each call takes a new generation
// and stamps the blocks it lists, and the scan stops once every block of the
// tier is listed. The list is the caller's (touches sleep on fetches while
// other readers call in).
func (s *Store) uniqueBlocks(dst []int, ids []graph.NodeID, base, nBlocks int) []int {
	s.gen++
	if s.gen == 0 { // wrapped: no stale stamp may equal a generation again
		clear(s.seen)
		s.gen = 1
	}
	seen, gen, width := s.seen[base:base+nBlocks], s.gen, uint32(s.blockNodes)
	listed := 0
	for _, v := range ids {
		b := int(uint32(v) / width)
		if seen[b] == gen {
			continue
		}
		seen[b] = gen
		dst = append(dst, base+b)
		if listed++; listed == nBlocks {
			break
		}
	}
	return dst
}

// ensure makes block b resident for a demand reader, stalling it on the
// fetch when needed.
func (s *Store) ensure(p *sim.Proc, b int) {
	blk := &s.blocks[b]
	s.clock++
	blk.lastUse = s.clock
	if blk.resident {
		s.stats.Hits++
		s.markUsed(blk)
		return
	}
	if ev := blk.inflight; ev != nil {
		// A fetch (usually a prefetch) is already in flight: the reader only
		// pays the remaining overlap, and the touch counts as a hit.
		t0 := p.Now()
		ev.Wait(p)
		s.stats.StallTime += p.Now() - t0
		s.stats.Hits++
		s.clock++
		s.blocks[b].lastUse = s.clock
		s.markUsed(&s.blocks[b])
		return
	}
	s.stats.Misses++
	s.stats.DemandBytes += blk.bytes
	t0 := p.Now()
	s.fetch(p, b)
	s.stats.StallTime += p.Now() - t0
}

func (s *Store) markUsed(blk *block) {
	if blk.viaPrefetch {
		blk.viaPrefetch = false
		s.stats.PrefetchUsed++
	}
}

// Prefetch queues background fetches for blocks bs (it copies bs), so a
// later touch finds them resident or in flight; it skips resident ones.
// MaxInflight bounds how many run concurrently; the rest wait in the pending
// queue and issue as completions free slots, so every prediction is
// eventually covered (unless a demand touch got there first).
func (s *Store) Prefetch(bs []int) {
	if !s.cfg.Prefetch {
		return
	}
	s.pending = append(s.pending, bs...)
	// Predictions go stale after roughly a batch; cap the queue so a burst
	// can't keep issuing long-obsolete fetches. The queue moves down in its
	// array, so a steady stream of predictions allocates nothing.
	if max := 16 * s.cfg.MaxInflight; len(s.pending) > max {
		s.pending = append(s.pending[:0], s.pending[len(s.pending)-max:]...)
	}
	s.drainPrefetch()
}

// drainPrefetch issues queued prefetches while slots are free, skipping
// blocks a demand fetch or earlier prefetch already covers.
func (s *Store) drainPrefetch() {
	next := 0
	for s.inflightPrefetch < s.cfg.MaxInflight && next < len(s.pending) {
		b := s.pending[next]
		next++
		blk := &s.blocks[b]
		if blk.resident || blk.inflight != nil {
			continue
		}
		s.inflightPrefetch++
		s.stats.PrefetchIssued++
		s.stats.PrefetchBytes += blk.bytes
		blk.viaPrefetch = true
		// Stamp the block MRU at issue time: the prediction is that it is
		// about to be used, so it must not be the next LRU victim while the
		// fetch is still paying off.
		s.clock++
		blk.lastUse = s.clock
		// Register the in-flight event NOW, before the background proc gets
		// scheduled, so a touch racing the prefetch waits instead of issuing
		// a duplicate demand fetch.
		blk.inflight = s.eng.NewEvent()
		s.eng.Go(fmt.Sprintf("store/prefetch%d", b), func(p *sim.Proc) {
			s.fetch(p, b)
			s.inflightPrefetch--
			s.drainPrefetch()
		})
	}
	s.pending = append(s.pending[:0], s.pending[next:]...) // the queue stays at the front of its array
}

// fetch reads block b from the spill device (decoding compressed topology),
// admits it, and evicts LRU blocks beyond the budget.
func (s *Store) fetch(p *sim.Proc, b int) {
	blk := &s.blocks[b]
	ev := blk.inflight
	if ev == nil {
		ev = s.eng.NewEvent()
		blk.inflight = ev
	}
	s.dev.Read(p, blk.bytes)
	if s.compressed && b < s.nTopo {
		p.Sleep(sim.Time(float64(blk.bytes) / s.decodeRate))
	}
	blk = &s.blocks[b] // re-resolve: the slice never moves, but be explicit
	blk.inflight = nil
	blk.resident = true
	s.resident += blk.bytes
	ev.Trigger()
	s.evict(b)
}

// evict drops least-recently-used resident blocks (never the one just
// admitted, never in-flight ones) until the cache fits its budget.
func (s *Store) evict(keep int) {
	for s.resident > s.cfg.CacheBytes {
		victim := -1
		for i := range s.blocks {
			if i == keep || !s.blocks[i].resident || s.blocks[i].inflight != nil {
				continue
			}
			if victim < 0 || s.blocks[i].lastUse < s.blocks[victim].lastUse {
				victim = i
			}
		}
		if victim < 0 {
			return // only the kept block is resident; allow transient overrun
		}
		s.blocks[victim].resident = false
		s.blocks[victim].viaPrefetch = false
		s.resident -= s.blocks[victim].bytes
	}
}
