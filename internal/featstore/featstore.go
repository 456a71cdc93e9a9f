// Package featstore implements node-feature placement and lookup: the
// feature position lists of the paper's implementation section.
//
// DSP uses a *partitioned* cache: each GPU caches the hottest feature rows
// of its own graph patch (hot nodes selected by in-degree by default), so the
// GPUs jointly form one large NVLink-reachable aggregate cache; cold rows
// stay in CPU memory and are read via UVA. Quiver-style systems instead
// *replicate* one globally-hot set on every GPU, bounded by a single GPU's
// budget. Both layouts are provided so the caching ablations can compare
// them under identical budgets.
package featstore

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Policy selects the hot-node ranking criterion.
type Policy int

const (
	// ByDegree ranks nodes by in-degree (the paper's default).
	ByDegree Policy = iota
	// ByPageRank ranks by PageRank score.
	ByPageRank
	// ByReversePageRank ranks by PageRank on the reversed graph.
	ByReversePageRank
)

func (p Policy) String() string {
	switch p {
	case ByDegree:
		return "degree"
	case ByPageRank:
		return "pagerank"
	case ByReversePageRank:
		return "reverse-pagerank"
	default:
		return "unknown"
	}
}

// Layout distinguishes the cache organisations under comparison.
type Layout int

const (
	// Partitioned: each GPU caches different rows (DSP).
	Partitioned Layout = iota
	// Replicated: every GPU caches the same globally-hot rows (Quiver).
	Replicated
	// DimSliced: every GPU holds ALL rows restricted to a contiguous
	// [#Nodes, F/world] column slice (P3's hybrid-parallel layout). There
	// are no hot/cold rows and no host tier — every read is GPU-local, and
	// cross-GPU traffic moves first-layer activations instead of features.
	DimSliced
)

// Store is the feature placement for one machine. Node ids are layout ids
// (after renumbering); values returns the feature values in the same order,
// and only Row and Gather call it.
type Store struct {
	Layout  Layout
	Dim     int
	NumGPUs int
	rows    int
	values  func() []float32

	// cacheGPU[v] is the GPU holding v's cached row under the Partitioned
	// layout (-1 = not cached). Under Replicated, hot[v] says the row is on
	// every GPU. This is the "feature position list".
	cacheGPU []int8
	hot      []bool

	// CachedRows[g] counts rows cached on GPU g (memory accounting).
	CachedRows []int64
}

// RowBytes returns the wire size of one feature row.
func (s *Store) RowBytes() int { return s.Dim * 4 }

// Row returns node v's feature row (a view into backing storage).
func (s *Store) Row(v graph.NodeID) []float32 {
	return s.values()[int(v)*s.Dim : (int(v)+1)*s.Dim]
}

// Gather copies the rows of ids into a contiguous buffer — the real data
// work the simulated gather kernels account for.
func (s *Store) Gather(ids []graph.NodeID) []float32 {
	vals := s.values()
	out := make([]float32, len(ids)*s.Dim)
	for i, v := range ids {
		copy(out[i*s.Dim:(i+1)*s.Dim], vals[int(v)*s.Dim:(int(v)+1)*s.Dim])
	}
	return out
}

// CacheBytes returns the cache footprint on GPU g. Under DimSliced the
// footprint is the full-row-count slab at the GPU's slice width rather than
// a cached-row count at full width.
func (s *Store) CacheBytes(g int) int64 {
	if s.Layout == DimSliced {
		return int64(s.NumRows()) * int64(s.SliceDim(g)) * 4
	}
	return s.CachedRows[g] * int64(s.RowBytes())
}

// SliceRange returns GPU g's contiguous feature-column range [lo, hi) under
// the DimSliced layout: a ceil split, so the first Dim%NumGPUs GPUs hold one
// extra column.
func (s *Store) SliceRange(g int) (lo, hi int) {
	if s.Layout != DimSliced {
		panic("featstore: SliceRange is only defined for the DimSliced layout")
	}
	base, rem := s.Dim/s.NumGPUs, s.Dim%s.NumGPUs
	lo = g * base
	if g < rem {
		lo += g
	} else {
		lo += rem
	}
	hi = lo + base
	if g < rem {
		hi++
	}
	return lo, hi
}

// SliceDim returns the width of GPU g's column slice under DimSliced.
func (s *Store) SliceDim(g int) int {
	lo, hi := s.SliceRange(g)
	return hi - lo
}

// Placement classifies where node v's feature row is read from by GPU g.
type Placement int

const (
	// LocalGPU: cached on the requesting GPU.
	LocalGPU Placement = iota
	// RemoteGPU: cached on another GPU, fetched over NVLink.
	RemoteGPU
	// HostMemory: cold row, fetched from CPU memory via UVA.
	HostMemory
)

// Locate returns the placement of v's row relative to requesting GPU g, and
// for RemoteGPU the holder id.
func (s *Store) Locate(v graph.NodeID, g int) (Placement, int) {
	switch s.Layout {
	case Replicated:
		if s.hot[v] {
			return LocalGPU, g
		}
		return HostMemory, -1
	case DimSliced:
		// Every GPU holds a slice of every row; the row read is local and
		// the exchange happens at the activation level, not here.
		return LocalGPU, g
	default:
		holder := s.cacheGPU[v]
		switch {
		case holder < 0:
			return HostMemory, -1
		case int(holder) == g:
			return LocalGPU, g
		default:
			return RemoteGPU, int(holder)
		}
	}
}

// NumRows returns the number of feature rows in the store.
func (s *Store) NumRows() int { return s.rows }

// Holder returns the GPU caching v's row under the Partitioned layout
// (-1 = not cached). It panics on other layouts, which have no per-row
// holder.
func (s *Store) Holder(v graph.NodeID) int {
	if s.Layout != Partitioned {
		panic("featstore: Holder is only defined for the Partitioned layout")
	}
	return int(s.cacheGPU[v])
}

// Promote caches v's row on GPU g (Partitioned layout only). The caller is
// responsible for budget accounting: pair every promotion of a full cache
// with a Demote, as the adaptive rebalancer does.
func (s *Store) Promote(v graph.NodeID, g int) {
	if s.Layout != Partitioned {
		panic("featstore: Promote is only defined for the Partitioned layout")
	}
	if old := s.cacheGPU[v]; old >= 0 {
		if int(old) == g {
			return
		}
		s.CachedRows[old]--
	}
	s.cacheGPU[v] = int8(g)
	s.CachedRows[g]++
}

// Demote evicts v's cached row (Partitioned layout only; evicting an
// uncached row is a no-op). The master copy in host memory remains readable
// via UVA.
func (s *Store) Demote(v graph.NodeID) {
	if s.Layout != Partitioned {
		panic("featstore: Demote is only defined for the Partitioned layout")
	}
	if old := s.cacheGPU[v]; old >= 0 {
		s.CachedRows[old]--
		s.cacheGPU[v] = -1
	}
}

// Tally counts requested ids by Split list for requesting GPU g and lists
// the host rows, in one pass over ids: counts[q] is the number of rows GPU
// q's cache serves (q == g: the local ones) and counts[NumGPUs] the number of
// host rows, which it writes in request order into host's storage and
// returns. counts must have NumGPUs+1 entries (Tally overwrites them) and
// host room for len(ids). hot, when non-nil, gains one per requested row:
// the cache manager's hotness counters, kept in the same pass.
func (s *Store) Tally(ids []graph.NodeID, g int, counts []int, hot []float64, host []graph.NodeID) []graph.NodeID {
	clear(counts)
	host = host[:len(ids)]
	k := 0
	if s.Layout != Partitioned {
		for _, v := range ids {
			l := s.list(v, g)
			counts[l]++
			host[k] = v
			if l == s.NumGPUs {
				k++
			}
		}
		return host[:k]
	}
	// Partitioned: branch-free, since a batch's placements are data-random.
	// Every row is written at the next host slot, which advances only past
	// an uncached one (holder -1).
	holder, np1 := s.cacheGPU, s.NumGPUs+1
	if hot != nil {
		for _, v := range ids {
			hot[v]++
			h := int(holder[v])
			counts[h+(h>>63)&np1]++
			host[k] = v
			k -= h >> 63
		}
	} else {
		for _, v := range ids {
			h := int(holder[v])
			counts[h+(h>>63)&np1]++
			host[k] = v
			k -= h >> 63
		}
	}
	return host[:k]
}

// AppendList appends to dst, in request order, the ids of Split list l for
// requesting GPU g (l = q: rows GPU q's cache serves; l = NumGPUs: host
// rows) and returns the extended slice.
func (s *Store) AppendList(dst, ids []graph.NodeID, g, l int) []graph.NodeID {
	for _, v := range ids {
		if s.list(v, g) == l {
			dst = append(dst, v)
		}
	}
	return dst
}

// Split partitions requested ids by placement for requesting GPU g:
// local rows, per-remote-GPU rows, and host rows, each in request order and
// nil when empty. Tally sizes every list exactly and a second pass places
// each row into one backing array, where the lists lie end to end. Each
// list is capped at its length, so an append (the cache manager's
// dead-holder reroute) copies instead of overwriting a neighbour.
func (s *Store) Split(ids []graph.NodeID, g int) (local []graph.NodeID, remote [][]graph.NodeID, host []graph.NodeID) {
	n := s.NumGPUs
	next := make([]int, n+1)
	buf := make([]graph.NodeID, len(ids))
	s.Tally(ids, g, next, nil, buf) // the placement pass below overwrites its host list
	// Counts to start offsets: next[l] is where list l's next row goes.
	off := 0
	for l, c := range next {
		next[l], off = off, off+c
	}
	for _, v := range ids {
		l := s.list(v, g)
		buf[next[l]] = v
		next[l]++
	}
	// next[l] is now where list l ends and list l+1 starts. lists[q] is GPU
	// q's rows (q == g: the local ones), lists[n] the host's.
	lists := make([][]graph.NodeID, n+1)
	lo := 0
	for l, hi := range next {
		if hi > lo {
			lists[l] = buf[lo:hi:hi]
		}
		lo = hi
	}
	local, host = lists[g], lists[n]
	lists[g] = nil
	return local, lists[:n:n], host
}

// list is the Split list v's row belongs to for requesting GPU g: the
// holding GPU of a GPU-cached row (g for a local one), NumGPUs for a host
// row. On the partitioned layout it is branch-free — the placement of a
// batch's rows is data-random, so a branch on it mispredicts.
func (s *Store) list(v graph.NodeID, g int) int {
	if s.Layout == Partitioned {
		h := int(s.cacheGPU[v]) // -1 when uncached: -1 + NumGPUs+1
		return h + (h>>63)&(s.NumGPUs+1)
	}
	if p, holder := s.Locate(v, g); p != HostMemory {
		return holder
	}
	return s.NumGPUs
}

// CachedFraction returns the weight-fraction of expected feature reads that
// any GPU cache can serve (LocalGPU or RemoteGPU placements), given a
// per-node access weight (e.g. a serving workload's popularity
// distribution). A nil weights slice weighs all nodes equally. This is the
// expected GPU-cache hit rate of the placement under that access pattern.
func (s *Store) CachedFraction(weights []float64) float64 {
	var total, hit float64
	for v := 0; v < s.rows; v++ {
		w := 1.0
		if weights != nil {
			w = weights[v]
		}
		total += w
		if p, _ := s.Locate(graph.NodeID(v), 0); p != HostMemory {
			hit += w
		}
	}
	if total == 0 {
		return 0
	}
	return hit / total
}

// Scores computes the policy ranking scores for all nodes.
func Scores(g *graph.CSR, policy Policy) []float64 {
	n := g.NumNodes()
	scores := make([]float64, n)
	switch policy {
	case ByDegree:
		for v := 0; v < n; v++ {
			scores[v] = float64(g.Degree(graph.NodeID(v)))
		}
	case ByPageRank:
		copy(scores, g.PageRank(0.85, 20))
	case ByReversePageRank:
		copy(scores, g.Reverse().PageRank(0.85, 20))
	default:
		panic(fmt.Sprintf("featstore: unknown policy %d", policy))
	}
	return scores
}

// hottestFirst orders ids by descending score, ties by ascending id. That is
// a total order, so the unstable sort is deterministic. The builders skip it
// when the budget takes every id or none.
func hottestFirst(ids []graph.NodeID, scores []float64) {
	slices.SortFunc(ids, func(a, b graph.NodeID) int {
		if c := cmp.Compare(scores[b], scores[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// BuildPartitioned builds DSP's partitioned cache: GPU g caches the
// highest-scoring rows of its own id range [offsets[g], offsets[g+1]) up to
// budgetPerGPU bytes. The graph must already be in layout order, and values
// returns its nodes' feature values, node-major.
func BuildPartitioned(g *graph.CSR, values func() []float32, dim int, offsets []int64, budgetPerGPU int64, policy Policy) *Store {
	numGPUs := len(offsets) - 1
	s := &Store{
		Layout: Partitioned, Dim: dim, NumGPUs: numGPUs,
		rows: g.NumNodes(), values: values,
		cacheGPU:   make([]int8, g.NumNodes()),
		CachedRows: make([]int64, numGPUs),
	}
	for i := range s.cacheGPU {
		s.cacheGPU[i] = -1
	}
	scores := Scores(g, policy)
	rowBytes := int64(dim * 4)
	capRows := budgetPerGPU / rowBytes
	for gpu := 0; gpu < numGPUs; gpu++ {
		lo, hi := offsets[gpu], offsets[gpu+1]
		ids := make([]graph.NodeID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			ids = append(ids, graph.NodeID(v))
		}
		take := min(int64(len(ids)), capRows)
		if 0 < take && take < int64(len(ids)) {
			hottestFirst(ids, scores)
		}
		for _, v := range ids[:take] {
			s.cacheGPU[v] = int8(gpu)
		}
		s.CachedRows[gpu] = take
	}
	return s
}

// BuildReplicated builds the Quiver-style replicated cache: the globally
// highest-scoring rows that fit in ONE GPU's budget, present on every GPU.
func BuildReplicated(g *graph.CSR, values func() []float32, dim int, numGPUs int, budgetPerGPU int64, policy Policy) *Store {
	s := &Store{
		Layout: Replicated, Dim: dim, NumGPUs: numGPUs,
		rows: g.NumNodes(), values: values,
		hot:        make([]bool, g.NumNodes()),
		CachedRows: make([]int64, numGPUs),
	}
	ids := make([]graph.NodeID, g.NumNodes())
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	take := min(int64(len(ids)), budgetPerGPU/int64(dim*4))
	if 0 < take && take < int64(len(ids)) {
		hottestFirst(ids, Scores(g, policy))
	}
	for _, v := range ids[:take] {
		s.hot[v] = true
	}
	for gpu := range s.CachedRows {
		s.CachedRows[gpu] = take
	}
	return s
}

// BuildDimSliced builds P3's dimension-partitioned layout: every GPU holds
// the full row set restricted to its contiguous [#Nodes, F/world] column
// slice. CachedRows counts all rows on every GPU (each holds a slice of
// each), so the per-GPU byte footprint comes from CacheBytes, which prices
// the slice width.
func BuildDimSliced(rows int, values func() []float32, dim, numGPUs int) *Store {
	s := &Store{
		Layout: DimSliced, Dim: dim, NumGPUs: numGPUs,
		rows: rows, values: values,
		CachedRows: make([]int64, numGPUs),
	}
	for g := range s.CachedRows {
		s.CachedRows[g] = int64(rows)
	}
	return s
}
