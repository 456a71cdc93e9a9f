package featstore

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

type fixture struct {
	d       *gen.Dataset
	g       *graph.CSR
	feats   func() []float32
	offsets []int64
	k       int
}

func build(t testing.TB, k int) *fixture {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "t", Nodes: 2000, AvgDegree: 10, FeatDim: 8, NumClasses: 4, Seed: 3,
	})
	res := partition.Metis(d.G, k, 1)
	ren := partition.BuildRenumbering(res)
	feats := make([]float32, d.G.NumNodes()*d.FeatDim)
	d.Rows.Draw(feats, ren.NewID)
	return &fixture{
		d:       d,
		g:       ren.ApplyToGraph(d.G),
		feats:   func() []float32 { return feats },
		offsets: ren.Offsets,
		k:       k,
	}
}

func TestPartitionedRespectsBudgetAndOwnership(t *testing.T) {
	f := build(t, 4)
	budget := int64(200 * f.d.FeatDim * 4) // 200 rows per GPU
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, budget, ByDegree)
	for g := 0; g < 4; g++ {
		if s.CachedRows[g] != 200 {
			t.Errorf("GPU %d cached %d rows, want 200", g, s.CachedRows[g])
		}
		if s.CacheBytes(g) > budget {
			t.Errorf("GPU %d over budget", g)
		}
	}
	// Cached nodes live in their holder's id range.
	for v := 0; v < f.g.NumNodes(); v++ {
		h := s.cacheGPU[v]
		if h < 0 {
			continue
		}
		if int64(v) < f.offsets[h] || int64(v) >= f.offsets[h+1] {
			t.Fatalf("node %d cached on GPU %d outside its range", v, h)
		}
	}
	if got := cachedTotal(s); got != 800 {
		t.Errorf("aggregate %d, want 800", got)
	}
}

func TestPartitionedCachesHottestFirst(t *testing.T) {
	f := build(t, 2)
	budget := int64(100 * f.d.FeatDim * 4)
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, budget, ByDegree)
	// Every cached node on a GPU has degree >= every uncached node there.
	for g := 0; g < 2; g++ {
		minCached, maxUncached := 1<<30, -1
		for v := f.offsets[g]; v < f.offsets[g+1]; v++ {
			deg := f.g.Degree(graph.NodeID(v))
			if s.cacheGPU[v] == int8(g) {
				if deg < minCached {
					minCached = deg
				}
			} else if deg > maxUncached {
				maxUncached = deg
			}
		}
		if minCached < maxUncached {
			t.Errorf("GPU %d: cached min degree %d < uncached max %d", g, minCached, maxUncached)
		}
	}
}

func TestReplicatedVsPartitionedAggregate(t *testing.T) {
	// Same per-GPU budget: the partitioned cache holds k times more
	// distinct rows.
	f := build(t, 4)
	budget := int64(150 * f.d.FeatDim * 4)
	p := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, budget, ByDegree)
	r := BuildReplicated(f.g, f.feats, f.d.FeatDim, 4, budget, ByDegree)
	// A replicated row is cached on every GPU, so one GPU's count is the
	// distinct total.
	if cachedTotal(p) != 4*r.CachedRows[0] {
		t.Errorf("partitioned %d distinct rows vs replicated %d",
			cachedTotal(p), r.CachedRows[0])
	}
}

func TestLocatePartitioned(t *testing.T) {
	f := build(t, 4)
	budget := int64(100 * f.d.FeatDim * 4)
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, budget, ByDegree)
	seenLocal, seenRemote, seenHost := false, false, false
	for v := 0; v < f.g.NumNodes(); v++ {
		p, holder := s.Locate(graph.NodeID(v), 0)
		switch p {
		case LocalGPU:
			seenLocal = true
			if s.cacheGPU[v] != 0 {
				t.Fatal("local placement for row not cached on GPU 0")
			}
		case RemoteGPU:
			seenRemote = true
			if holder == 0 || holder >= 4 {
				t.Fatalf("bad holder %d", holder)
			}
		case HostMemory:
			seenHost = true
		}
	}
	if !seenLocal || !seenRemote || !seenHost {
		t.Fatalf("placements not all exercised: %v %v %v", seenLocal, seenRemote, seenHost)
	}
}

func TestLocateReplicatedNeverRemote(t *testing.T) {
	f := build(t, 4)
	s := BuildReplicated(f.g, f.feats, f.d.FeatDim, 4, int64(100*f.d.FeatDim*4), ByDegree)
	for v := 0; v < f.g.NumNodes(); v++ {
		for g := 0; g < 4; g++ {
			if p, _ := s.Locate(graph.NodeID(v), g); p == RemoteGPU {
				t.Fatal("replicated cache produced a remote placement")
			}
		}
	}
}

func TestSplitPartitionsRequest(t *testing.T) {
	f := build(t, 4)
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, int64(100*f.d.FeatDim*4), ByDegree)
	var ids []graph.NodeID
	for v := 0; v < f.g.NumNodes(); v += 3 {
		ids = append(ids, graph.NodeID(v))
	}
	local, remote, host := s.Split(ids, 1)
	total := len(local) + len(host)
	for g, r := range remote {
		if g == 1 && len(r) > 0 {
			t.Fatal("own GPU listed as remote")
		}
		total += len(r)
	}
	if total != len(ids) {
		t.Fatalf("split lost ids: %d of %d", total, len(ids))
	}
	for _, v := range local {
		if p, _ := s.Locate(v, 1); p != LocalGPU {
			t.Fatal("misclassified local")
		}
	}
	for _, v := range host {
		if p, _ := s.Locate(v, 1); p != HostMemory {
			t.Fatal("misclassified host")
		}
	}
}

func TestGatherCopiesRows(t *testing.T) {
	f := build(t, 2)
	s := BuildDimSliced(f.g.NumNodes(), f.feats, f.d.FeatDim, 2)
	ids := []graph.NodeID{5, 0, 17}
	out := s.Gather(ids)
	if len(out) != 3*f.d.FeatDim {
		t.Fatalf("gather size %d", len(out))
	}
	for i, v := range ids {
		row := s.Row(v)
		for j := 0; j < f.d.FeatDim; j++ {
			if out[i*f.d.FeatDim+j] != row[j] {
				t.Fatalf("gather mismatch id %d dim %d", v, j)
			}
		}
	}
}

func TestPolicies(t *testing.T) {
	f := build(t, 2)
	for _, pol := range []Policy{ByDegree, ByPageRank, ByReversePageRank} {
		scores := Scores(f.g, pol)
		if len(scores) != f.g.NumNodes() {
			t.Fatalf("%v: %d scores", pol, len(scores))
		}
		var sum float64
		for _, sc := range scores {
			if sc < 0 {
				t.Fatalf("%v: negative score", pol)
			}
			sum += sc
		}
		if sum == 0 {
			t.Fatalf("%v: all-zero scores", pol)
		}
		s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, int64(50*f.d.FeatDim*4), pol)
		if got := cachedTotal(s); got != 100 {
			t.Fatalf("%v: aggregate %d", pol, got)
		}
	}
}

func TestHotTrafficConcentration(t *testing.T) {
	// Power-law access: a degree-ranked cache of 20% of rows should cover
	// well over 20% of neighbour occurrences (the premise of hot caching).
	f := build(t, 1)
	budget := int64(f.g.NumNodes()/5) * int64(f.d.FeatDim*4)
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, budget, ByDegree)
	var hits, total int64
	for v := 0; v < f.g.NumNodes(); v++ {
		for _, u := range f.g.Neighbors(graph.NodeID(v)) {
			total++
			if p, _ := s.Locate(u, 0); p == LocalGPU {
				hits++
			}
		}
	}
	if frac := float64(hits) / float64(total); frac < 0.4 {
		t.Errorf("20%% cache covers only %.2f of accesses", frac)
	}
}

func TestSplitProperty(t *testing.T) {
	// For random request sets and requesting GPUs, Split is a partition of
	// the request consistent with Locate.
	f := build(t, 4)
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, int64(120*f.d.FeatDim*4), ByDegree)
	if err := quick.Check(func(seed uint64, gRaw uint8) bool {
		r := rng.New(seed)
		g := int(gRaw) % 4
		n := f.g.NumNodes()
		ids := make([]graph.NodeID, 1+r.Intn(200))
		for i := range ids {
			ids[i] = graph.NodeID(r.Intn(n))
		}
		local, remote, host := s.Split(ids, g)
		total := len(local) + len(host)
		for _, rr := range remote {
			total += len(rr)
		}
		if total != len(ids) {
			return false
		}
		for _, v := range local {
			if p, _ := s.Locate(v, g); p != LocalGPU {
				return false
			}
		}
		for holder, rr := range remote {
			for _, v := range rr {
				if p, h := s.Locate(v, g); p != RemoteGPU || h != holder {
					return false
				}
			}
		}
		for _, v := range host {
			if p, _ := s.Locate(v, g); p != HostMemory {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitExactPartitionAllLayouts: for every layout — partitioned,
// replicated, dimension-sliced, and a zero-budget partitioned store (every
// row on the host) — Split's three outputs are exactly a permutation of the
// input multiset: concatenated they have the same length and the same per-id
// multiplicity, with no id invented or dropped.
func TestSplitExactPartitionAllLayouts(t *testing.T) {
	f := build(t, 4)
	budget := int64(120 * f.d.FeatDim * 4)
	stores := map[string]*Store{
		"partitioned": BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, budget, ByDegree),
		"replicated":  BuildReplicated(f.g, f.feats, f.d.FeatDim, 4, budget, ByDegree),
		"zerobudget":  BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, 0, ByDegree),
		"dimsliced":   BuildDimSliced(f.g.NumNodes(), f.feats, f.d.FeatDim, 4),
	}
	for name, s := range stores {
		s := s
		check := func(seed uint64, gRaw uint8) bool {
			r := rng.New(seed)
			g := int(gRaw) % 4
			n := f.g.NumNodes()
			// Random ids, duplicates included on purpose.
			ids := make([]graph.NodeID, r.Intn(300))
			for i := range ids {
				ids[i] = graph.NodeID(r.Intn(n))
			}
			want := map[graph.NodeID]int{}
			for _, v := range ids {
				want[v]++
			}
			local, remote, host := s.Split(ids, g)
			got := map[graph.NodeID]int{}
			total := 0
			add := func(part []graph.NodeID) {
				for _, v := range part {
					got[v]++
					total++
				}
			}
			add(local)
			add(host)
			for _, rr := range remote {
				add(rr)
			}
			if total != len(ids) || len(got) != len(want) {
				return false
			}
			for v, c := range want {
				if got[v] != c {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// refSplit is Split as it was before the lists were sized by a counting
// pass: one append per id into growing lists.
func refSplit(s *Store, ids []graph.NodeID, g int) (local []graph.NodeID, remote [][]graph.NodeID, host []graph.NodeID) {
	remote = make([][]graph.NodeID, s.NumGPUs)
	for _, v := range ids {
		switch p, holder := s.Locate(v, g); p {
		case LocalGPU:
			local = append(local, v)
		case RemoteGPU:
			remote[holder] = append(remote[holder], v)
		default:
			host = append(host, v)
		}
	}
	return local, remote, host
}

// TestSplitMatchesReference: on every layout, at 4 and 10 GPUs, Split
// equals the append loop by reflect.DeepEqual — id order and the nil-ness
// of empty lists included — and every list is capped at its length, so
// appending to one never writes into another.
func TestSplitMatchesReference(t *testing.T) {
	for _, k := range []int{4, 10} {
		f := build(t, k)
		budget := int64(60 * f.d.FeatDim * 4)
		stores := map[string]*Store{
			"partitioned": BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, budget, ByDegree),
			"replicated":  BuildReplicated(f.g, f.feats, f.d.FeatDim, k, budget, ByDegree),
			"zerobudget":  BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, 0, ByDegree),
			"everything":  BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, 1<<40, ByDegree),
			"dimsliced":   BuildDimSliced(f.g.NumNodes(), f.feats, f.d.FeatDim, k),
		}
		for name, s := range stores {
			s := s
			check := func(seed uint64, gRaw uint8) bool {
				r := rng.New(seed)
				g := int(gRaw) % k
				ids := make([]graph.NodeID, r.Intn(300))
				for i := range ids {
					ids[i] = graph.NodeID(r.Intn(f.g.NumNodes()))
				}
				local, remote, host := s.Split(ids, g)
				wl, wr, wh := refSplit(s, ids, g)
				if !reflect.DeepEqual(local, wl) || !reflect.DeepEqual(remote, wr) || !reflect.DeepEqual(host, wh) {
					return false
				}
				lists := append([][]graph.NodeID{local, host}, remote...)
				for _, l := range lists {
					if cap(l) != len(l) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
				t.Errorf("k=%d %s: %v", k, name, err)
			}
		}
	}
}

// TestDimSlicedExactPartition: the column slices of a DimSliced store tile
// [0, Dim) exactly — contiguous, disjoint, widths within one of each other —
// and the derived accounting (CacheBytes, CachedRows, Locate) is
// consistent with every GPU holding all rows of its slice.
func TestDimSlicedExactPartition(t *testing.T) {
	f := build(t, 4)
	check := func(dimRaw, gpusRaw uint8) bool {
		dim := 1 + int(dimRaw)%257
		gpus := 1 + int(gpusRaw)%8
		s := BuildDimSliced(10, nil, dim, gpus)
		lo0, _ := s.SliceRange(0)
		if lo0 != 0 {
			return false
		}
		prev := 0
		base := dim / gpus
		var bytes int64
		for g := 0; g < gpus; g++ {
			lo, hi := s.SliceRange(g)
			if lo != prev || hi < lo {
				return false
			}
			if w := hi - lo; w != base && w != base+1 {
				return false
			}
			if s.SliceDim(g) != hi-lo {
				return false
			}
			if s.CacheBytes(g) != int64(s.NumRows())*int64(hi-lo)*4 {
				return false
			}
			bytes += s.CacheBytes(g)
			prev = hi
		}
		if prev != dim {
			return false
		}
		if bytes != int64(s.NumRows())*int64(dim)*4 {
			return false
		}
		// Every GPU holds its slice of every row.
		for _, rows := range s.CachedRows {
			if rows != int64(s.NumRows()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// Every row reads local on every GPU: the slice holds all rows.
	s := BuildDimSliced(f.g.NumNodes(), f.feats, f.d.FeatDim, 4)
	for g := 0; g < 4; g++ {
		for _, v := range []graph.NodeID{0, graph.NodeID(f.g.NumNodes() / 2), graph.NodeID(f.g.NumNodes() - 1)} {
			if p, h := s.Locate(v, g); p != LocalGPU || h != g {
				t.Fatalf("Locate(%d, gpu%d) = (%v, %d), want local", v, g, p, h)
			}
		}
	}
}

func TestPromoteDemoteHolder(t *testing.T) {
	f := build(t, 2)
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, int64(50*f.d.FeatDim*4), ByDegree)
	var cold graph.NodeID = -1
	for v := f.offsets[0]; v < f.offsets[1]; v++ {
		if s.Holder(graph.NodeID(v)) < 0 {
			cold = graph.NodeID(v)
			break
		}
	}
	if cold < 0 {
		t.Fatal("no cold row in fixture")
	}
	before := s.CachedRows[0]
	s.Promote(cold, 0)
	if s.Holder(cold) != 0 || s.CachedRows[0] != before+1 {
		t.Fatalf("promote: holder %d rows %d", s.Holder(cold), s.CachedRows[0])
	}
	if p, _ := s.Locate(cold, 0); p != LocalGPU {
		t.Fatal("promoted row not local")
	}
	s.Promote(cold, 0) // idempotent
	if s.CachedRows[0] != before+1 {
		t.Fatal("re-promotion double-counted")
	}
	s.Demote(cold)
	if s.Holder(cold) >= 0 || s.CachedRows[0] != before {
		t.Fatalf("demote: holder %d rows %d", s.Holder(cold), s.CachedRows[0])
	}
	s.Demote(cold) // demoting an uncached row is a no-op
	if s.CachedRows[0] != before {
		t.Fatal("double demotion changed accounting")
	}
	if p, _ := s.Locate(cold, 0); p != HostMemory {
		t.Fatal("demoted row not host")
	}
}

func TestZeroBudgetCachesNothing(t *testing.T) {
	f := build(t, 2)
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, 0, ByDegree)
	if got := cachedTotal(s); got != 0 {
		t.Fatalf("zero budget cached %d rows", got)
	}
	for v := 0; v < 50; v++ {
		if p, _ := s.Locate(graph.NodeID(v), 0); p != HostMemory {
			t.Fatal("zero-budget store not host-only in effect")
		}
	}
}

func TestHugeBudgetCachesEverything(t *testing.T) {
	f := build(t, 2)
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, 1<<40, ByDegree)
	if got := cachedTotal(s); int(got) != f.g.NumNodes() {
		t.Fatalf("cached %d of %d rows", got, f.g.NumNodes())
	}
	for v := 0; v < f.g.NumNodes(); v += 37 {
		if p, _ := s.Locate(graph.NodeID(v), 1); p == HostMemory {
			t.Fatal("row left on host despite infinite budget")
		}
	}
}

func TestCachedFractionWeighted(t *testing.T) {
	f := build(t, 2)
	n := f.g.NumNodes()
	// Budget for a quarter of the rows per GPU.
	budget := int64(n/4) * int64(f.d.FeatDim*4)
	s := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, budget, ByDegree)

	uni := s.CachedFraction(nil)
	if uni <= 0 || uni >= 1 {
		t.Fatalf("uniform cached fraction %g out of (0,1)", uni)
	}
	// Weighting by degree (the cache policy itself) must not lower the hit
	// rate versus uniform access: the cache holds the highest-degree rows.
	w := make([]float64, n)
	for v := 0; v < n; v++ {
		w[v] = float64(f.g.Degree(graph.NodeID(v))) + 1
	}
	if hot := s.CachedFraction(w); hot < uni {
		t.Fatalf("degree-weighted fraction %g < uniform %g", hot, uni)
	}
	// All-mass-on-one-node is exactly its Locate result.
	solo := make([]float64, n)
	solo[0] = 1
	p, _ := s.Locate(0, 0)
	want := 0.0
	if p != HostMemory {
		want = 1.0
	}
	if got := s.CachedFraction(solo); got != want {
		t.Fatalf("solo fraction %g, want %g", got, want)
	}
}

// refHottest is the builders' ranking as it was: a stable comparison sort of
// ids by descending score, ties by ascending id.
func refHottest(ids []graph.NodeID, scores []float64) {
	sort.SliceStable(ids, func(a, b int) bool {
		sa, sb := scores[ids[a]], scores[ids[b]]
		if sa != sb {
			return sa > sb
		}
		return ids[a] < ids[b]
	})
}

// TestBuildersMatchStableSort: under every policy and budget — none, part of
// a range, exactly a range, all of it — the partitioned holders and the
// replicated hot set equal the top rows of the old stable sort.
func TestBuildersMatchStableSort(t *testing.T) {
	for _, k := range []int{4, 10} {
		f := build(t, k)
		row := int64(f.d.FeatDim * 4)
		rangeRows := f.offsets[1] - f.offsets[0]
		for _, policy := range []Policy{ByDegree, ByPageRank, ByReversePageRank} {
			scores := Scores(f.g, policy)
			for _, rows := range []int64{0, 1, 60, rangeRows, 1 << 30} {
				p := BuildPartitioned(f.g, f.feats, f.d.FeatDim, f.offsets, rows*row, policy)
				for g := 0; g < k; g++ {
					var ids []graph.NodeID
					for v := f.offsets[g]; v < f.offsets[g+1]; v++ {
						ids = append(ids, graph.NodeID(v))
					}
					refHottest(ids, scores)
					take := min(int64(len(ids)), rows)
					if p.CachedRows[g] != take {
						t.Fatalf("k=%d policy %d rows %d: GPU %d caches %d rows, want %d", k, policy, rows, g, p.CachedRows[g], take)
					}
					for i, v := range ids {
						if cached := p.cacheGPU[v] == int8(g); cached != (int64(i) < take) {
							t.Fatalf("k=%d policy %d rows %d: node %d (rank %d) cached=%v", k, policy, rows, v, i, cached)
						}
					}
				}
				r := BuildReplicated(f.g, f.feats, f.d.FeatDim, k, rows*row, policy)
				ids := make([]graph.NodeID, f.g.NumNodes())
				for i := range ids {
					ids[i] = graph.NodeID(i)
				}
				refHottest(ids, scores)
				take := min(int64(len(ids)), rows)
				for i, v := range ids {
					if r.hot[v] != (int64(i) < take) {
						t.Fatalf("k=%d policy %d rows %d: replicated node %d (rank %d) hot=%v", k, policy, rows, v, i, r.hot[v])
					}
				}
			}
		}
	}
}

// cachedTotal is the number of distinct rows a partitioned store caches
// across all GPUs: each row has at most one holder.
func cachedTotal(s *Store) int64 {
	var t int64
	for _, c := range s.CachedRows {
		t += c
	}
	return t
}
