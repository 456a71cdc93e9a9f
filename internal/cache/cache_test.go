package cache

import (
	"cmp"
	"slices"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/featstore"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sim"
)

type fixture struct {
	g       *graph.CSR
	feats   func() []float32
	dim     int
	offsets []int64
}

func build(t *testing.T, k int) *fixture {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "cache-t", Nodes: 1200, AvgDegree: 8, FeatDim: 8, NumClasses: 4, Seed: 5,
	})
	res := partition.Metis(d.G, k, 1)
	ren := partition.BuildRenumbering(res)
	feats := make([]float32, d.G.NumNodes()*d.FeatDim)
	d.Rows.Draw(feats, ren.NewID)
	return &fixture{
		g:       ren.ApplyToGraph(d.G),
		feats:   func() []float32 { return feats },
		dim:     d.FeatDim,
		offsets: ren.Offsets,
	}
}

func (f *fixture) store(budgetRows int64) *featstore.Store {
	return featstore.BuildPartitioned(f.g, f.feats, f.dim, f.offsets,
		budgetRows*int64(f.dim*4), featstore.ByDegree)
}

// runSim executes fn in a simulation process on a fresh 2-GPU machine and
// returns the machine.
func runSim(t *testing.T, n int, fn func(p *sim.Proc, m *hw.Machine)) *hw.Machine {
	t.Helper()
	m := hw.NewMachine(n, hw.V100(), hw.XeonE5())
	m.Eng.Go("test", func(p *sim.Proc) { fn(p, m) })
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

// coldIDs returns n uncached rows of GPU g's range.
func coldIDs(s *featstore.Store, offsets []int64, g, n int) []graph.NodeID {
	var out []graph.NodeID
	for v := offsets[g]; v < offsets[g+1] && len(out) < n; v++ {
		if s.Holder(graph.NodeID(v)) < 0 {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

func TestRebalancePromotesObservedHotRows(t *testing.T) {
	f := build(t, 2)
	s := f.store(50)
	mgr := New(s, f.g, f.offsets, Config{Policy: LFUDecay})
	hot := coldIDs(s, f.offsets, 0, 10)
	if len(hot) != 10 {
		t.Fatalf("fixture has only %d cold rows", len(hot))
	}
	runSim(t, 2, func(p *sim.Proc, m *hw.Machine) {
		for i := 0; i < 5; i++ {
			mgr.Split(hot, 0) // hammer the cold rows
		}
		mgr.Rebalance(p, m.Fabric)
	})
	for _, v := range hot {
		if s.Holder(v) != 0 {
			t.Fatalf("hot row %d not promoted to GPU 0 (holder %d)", v, s.Holder(v))
		}
	}
	for g := 0; g < 2; g++ {
		if s.CachedRows[g] != 50 {
			t.Fatalf("GPU %d shard grew to %d rows (budget 50)", g, s.CachedRows[g])
		}
	}
	st := mgr.Stats()
	if st.Promoted != 10 {
		t.Fatalf("promoted %d, want 10", st.Promoted)
	}
	if want := int64(10 * f.dim * 4); st.MovedBytes != want {
		t.Fatalf("moved %d bytes, want %d", st.MovedBytes, want)
	}
	if st.Rebalances != 1 || st.RebalanceTime <= 0 {
		t.Fatalf("rebalances %d time %v", st.Rebalances, st.RebalanceTime)
	}
}

func TestStaticPolicyNeverMoves(t *testing.T) {
	f := build(t, 2)
	s := f.store(50)
	mgr := New(s, f.g, f.offsets, Config{Policy: Static})
	if mgr.Dynamic() {
		t.Fatal("static manager claims to be dynamic")
	}
	if mgr.counts != nil || mgr.prior != nil {
		t.Fatal("static manager keeps hotness state nothing reads")
	}
	hot := coldIDs(s, f.offsets, 0, 10)
	before := append([]int64(nil), s.CachedRows...)
	runSim(t, 2, func(p *sim.Proc, m *hw.Machine) {
		for i := 0; i < 20; i++ {
			mgr.Split(hot, 0)
		}
		mgr.Rebalance(p, m.Fabric)
	})
	st := mgr.Stats()
	if st.Promoted != 0 || st.MovedBytes != 0 || st.Rebalances != 0 {
		t.Fatalf("static policy moved rows: %+v", st)
	}
	for g := range before {
		if s.CachedRows[g] != before[g] {
			t.Fatalf("GPU %d shard changed under static policy", g)
		}
	}
	for _, v := range hot {
		if s.Holder(v) >= 0 {
			t.Fatalf("row %d promoted under static policy", v)
		}
	}
}

func TestRebalanceSkipsDeadGPUAndReroutesReads(t *testing.T) {
	f := build(t, 2)
	s := f.store(50)
	mgr := New(s, f.g, f.offsets, Config{Policy: LFUDecay})
	view := fault.NewView(2)
	mgr.SetView(view)
	hot0 := coldIDs(s, f.offsets, 0, 5)
	hot1 := coldIDs(s, f.offsets, 1, 5)
	// A row cached on GPU 1, to be read from GPU 0 after the death.
	var onGPU1 graph.NodeID = -1
	for v := f.offsets[1]; v < f.offsets[2]; v++ {
		if s.Holder(graph.NodeID(v)) == 1 {
			onGPU1 = graph.NodeID(v)
			break
		}
	}
	runSim(t, 2, func(p *sim.Proc, m *hw.Machine) {
		mgr.Split(append(append([]graph.NodeID(nil), hot0...), hot1...), 0)
		view.Kill(1)
		local, remote, host := mgr.Split([]graph.NodeID{onGPU1}, 0)
		if len(local) != 0 || len(remote[1]) != 0 || len(host) != 1 {
			t.Errorf("dead-holder read not rerouted to host: %v %v %v", local, remote, host)
		}
		mgr.Rebalance(p, m.Fabric)
	})
	for _, v := range hot1 {
		if s.Holder(v) >= 0 {
			t.Fatalf("dead GPU 1's shard was rebalanced (row %d)", v)
		}
	}
	promoted := 0
	for _, v := range hot0 {
		if s.Holder(v) == 0 {
			promoted++
		}
	}
	if promoted != 5 {
		t.Fatalf("live GPU promoted %d of 5 hot rows", promoted)
	}
}

func TestMaxMovesCapAndDecay(t *testing.T) {
	f := build(t, 2)
	s := f.store(50)
	mgr := New(s, f.g, f.offsets, Config{Policy: LFUDecay, MaxMovesPerGPU: 3, Decay: 0.5})
	if mgr.prior != nil {
		t.Fatal("lfu-decay manager keeps a degree prior it never reads")
	}
	hot := coldIDs(s, f.offsets, 0, 10)
	runSim(t, 2, func(p *sim.Proc, m *hw.Machine) {
		mgr.Split(hot, 0)
		c0 := mgr.counts[hot[0]]
		mgr.Rebalance(p, m.Fabric)
		if got := mgr.counts[hot[0]]; got != c0*0.5 {
			t.Errorf("counter not decayed: %g -> %g", c0, got)
		}
	})
	if st := mgr.Stats(); st.Promoted != 3 {
		t.Fatalf("promoted %d rows, cap is 3", st.Promoted)
	}
}

func TestAccountTiersAndHitRate(t *testing.T) {
	f := build(t, 2)
	s := f.store(50)
	mgr := New(s, f.g, f.offsets, Config{})
	mgr.Account(0, Tiers{Local: 6, Peer: 2, Host: 2})
	mgr.Account(1, Tiers{Local: 1, Peer: 0, Host: 4})
	st := mgr.Stats()
	if st.Tiers != (Tiers{Local: 7, Peer: 2, Host: 6}) {
		t.Fatalf("fleet tiers %+v", st.Tiers)
	}
	if got, want := st.Tiers.HitRate(), 9.0/15.0; got != want {
		t.Fatalf("hit rate %g, want %g", got, want)
	}
	if (Tiers{}).HitRate() != 0 {
		t.Fatal("empty tiers hit rate not 0")
	}
}

func TestRebalanceDeterminism(t *testing.T) {
	f := build(t, 2)
	run := func() ([]int, Stats) {
		s := f.store(40)
		mgr := New(s, f.g, f.offsets, Config{Policy: DegreeHybrid})
		runSim(t, 2, func(p *sim.Proc, m *hw.Machine) {
			for i := 0; i < 3; i++ {
				mgr.Split(coldIDs(s, f.offsets, 0, 20), 0)
				mgr.Split(coldIDs(s, f.offsets, 1, 7), 1)
				mgr.Rebalance(p, m.Fabric)
			}
		})
		holders := make([]int, f.g.NumNodes())
		for v := range holders {
			holders[v] = s.Holder(graph.NodeID(v))
		}
		return holders, mgr.Stats()
	}
	h1, s1 := run()
	h2, s2 := run()
	for v := range h1 {
		if h1[v] != h2[v] {
			t.Fatalf("placement diverged at row %d: %d vs %d", v, h1[v], h2[v])
		}
	}
	if s1.Promoted != s2.Promoted || s1.MovedBytes != s2.MovedBytes ||
		s1.RebalanceTime != s2.RebalanceTime {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Promoted == 0 {
		t.Fatal("determinism test moved nothing")
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"static": Static, "": Static,
		"lfu": LFUDecay, "lfu-decay": LFUDecay,
		"hybrid": DegreeHybrid, "degree-hybrid": DegreeHybrid,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// hottestFirst is the rebalancer's ranking as a comparison sort over ids,
// reading score and holder on every comparison: with the promote and demote
// loops below it, the oracle for plan.
func (m *Manager) hottestFirst(ids []graph.NodeID, g int) {
	slices.SortFunc(ids, func(a, b graph.NodeID) int {
		if c := cmp.Compare(m.score(int(b)), m.score(int(a))); c != 0 {
			return c
		}
		ha, hb := m.store.Holder(a) == g, m.store.Holder(b) == g
		if ha != hb {
			if ha {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
}

// TestHottestFirstMatchesStableSort holds the rebalancer's plan — keys of
// (score, held, id) built once, a selection of the target shard, then a
// sort of the promotions and of the demotions — to the lists hottestFirst's
// full ranking gives, and hottestFirst to the stable sort that came before
// it. The counters have many score ties (few, repeated observations), each
// range has held and unheld rows, some held by another GPU, and budgets run
// from one row to all but one.
func TestHottestFirstMatchesStableSort(t *testing.T) {
	f := build(t, 3)
	for _, policy := range []Policy{LFUDecay, DegreeHybrid} {
		s := f.store(50)
		mgr := New(s, f.g, f.offsets, Config{Policy: policy})
		r := rng.New(uint64(policy))
		for i := 0; i < 200; i++ {
			mgr.Split([]graph.NodeID{graph.NodeID(r.Intn(f.g.NumNodes()))}, r.Intn(3))
		}
		for i := 0; i < 30; i++ { // rows cached away from their own range
			s.Promote(graph.NodeID(r.Intn(f.g.NumNodes())), r.Intn(3))
		}
		for g := 0; g < 3; g++ {
			lo, hi := f.offsets[g], f.offsets[g+1]
			var ids []graph.NodeID
			for v := lo; v < hi; v++ {
				ids = append(ids, graph.NodeID(v))
			}
			want := slices.Clone(ids)
			sort.SliceStable(want, func(a, b int) bool {
				sa, sb := mgr.score(int(want[a])), mgr.score(int(want[b]))
				if sa != sb {
					return sa > sb
				}
				ha, hb := s.Holder(want[a]) == g, s.Holder(want[b]) == g
				if ha != hb {
					return ha
				}
				return want[a] < want[b]
			})
			mgr.hottestFirst(ids, g)
			if !slices.Equal(ids, want) {
				t.Fatalf("policy %v GPU %d: hottestFirst differs from the stable sort", policy, g)
			}
			for _, budget := range []int64{1, 7, 50, (hi - lo) / 2, hi - lo - 1} {
				var wantP, wantD []graph.NodeID
				for _, v := range ids[:budget] {
					if s.Holder(v) != g {
						wantP = append(wantP, v)
					}
				}
				for i := len(ids) - 1; i >= int(budget); i-- {
					if s.Holder(ids[i]) == g {
						wantD = append(wantD, ids[i])
					}
				}
				promote, demote := mgr.plan(g, lo, hi, budget)
				gotP, gotD := keyIDs(promote), keyIDs(demote)
				if !slices.Equal(gotP, wantP) || !slices.Equal(gotD, wantD) {
					t.Fatalf("policy %v GPU %d budget %d: plan promotes %v and demotes %v, the full ranking %v and %v",
						policy, g, budget, gotP, gotD, wantP, wantD)
				}
			}
		}
	}
}

func keyIDs(keys []rankKey) []graph.NodeID {
	var ids []graph.NodeID
	for _, k := range keys {
		ids = append(ids, k.id())
	}
	return ids
}

// TestSelectHottestSplitsAtK: after selectHottest, keys[:k] are the k least
// keys, on random keys with ties in hi, sorted and reversed input and every
// k.
func TestSelectHottestSplitsAtK(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(300)
		keys := make([]rankKey, n)
		for i := range keys {
			keys[i] = rankKey{uint64(r.Intn(5)), uint64(i)}
		}
		switch trial % 3 {
		case 1:
			slices.SortFunc(keys, hotter)
		case 2:
			slices.SortFunc(keys, colder)
		}
		sorted := slices.Clone(keys)
		slices.SortFunc(sorted, hotter)
		for k := 0; k <= n; k++ {
			got := slices.Clone(keys)
			selectHottest(got, k)
			top := got[:k]
			slices.SortFunc(top, hotter)
			if !slices.Equal(top, sorted[:k]) {
				t.Fatalf("trial %d, n %d, k %d: keys[:k] are not the k least", trial, n, k)
			}
		}
	}
}

// TestTallyMatchesSplit: Tally is Split by counts. On random placements of
// both row-cache layouts, requests with repeats, and membership views with
// dead holders, its counts are Split's list lengths (counts[q] = len(remote[q]),
// counts[g] = len(local), counts[n] = len(host)), they fold into CountTiers'
// tiers, the host rows it returns are Split's host list in the same order —
// in a new buffer with room for every requested row, then in the storage of
// the one it returned — and it records the same hotness.
func TestTallyMatchesSplit(t *testing.T) {
	const n = 4
	f := build(t, n)
	rows := f.g.NumNodes()
	r := rng.New(17)
	rerouted := 0 // trials in which a dead holder's rows went to the host
	for trial := 0; trial < 60; trial++ {
		var s *featstore.Store
		if trial%3 == 2 {
			s = featstore.BuildReplicated(f.g, f.feats, f.dim, n, int64(r.Intn(rows))*int64(f.dim*4), featstore.ByDegree)
		} else {
			s = f.store(int64(r.Intn(rows / n)))
			for i := 0; i < rows/4; i++ { // scatter the placement
				v := graph.NodeID(r.Intn(rows))
				if r.Intn(3) == 0 {
					s.Demote(v)
				} else {
					s.Promote(v, r.Intn(n))
				}
			}
		}
		split := New(s, f.g, f.offsets, Config{Policy: LFUDecay})
		tally := New(s, f.g, f.offsets, Config{Policy: LFUDecay})
		if trial%2 == 1 {
			view := fault.NewView(n)
			for _, q := range r.Perm(n)[:1+trial%3] {
				view.Kill(q)
			}
			split.SetView(view)
			tally.SetView(view)
		}
		ids := make([]graph.NodeID, r.Intn(300))
		for i := range ids {
			ids[i] = graph.NodeID(r.Intn(rows))
		}
		g := r.Intn(n)
		local, remote, host := split.Split(ids, g)
		raw := make([]int, n+1)
		s.Tally(ids, g, raw, nil, make([]graph.NodeID, len(ids)))
		if len(host) > raw[n] {
			rerouted++
		}
		// Twice into one buffer: first from nothing, then in the storage the
		// first call returned.
		var buf []graph.NodeID
		for call := 0; call < 2; call++ {
			counts := make([]int, n+1)
			got := tally.Tally(ids, g, counts, buf)
			want := make([]int, n+1)
			for q := range remote {
				want[q] = len(remote[q])
			}
			want[g], want[n] = len(local), len(host)
			if !slices.Equal(counts, want) {
				t.Fatalf("trial %d (layout %d, GPU %d): Tally counts %v, Split's list lengths %v", trial, s.Layout, g, counts, want)
			}
			if tiers := TallyTiers(counts, g); tiers != CountTiers(local, remote, host) {
				t.Fatalf("trial %d: TallyTiers %+v, CountTiers %+v", trial, tiers, CountTiers(local, remote, host))
			}
			if !slices.Equal(got, host) || cap(got) < len(ids) {
				t.Fatalf("trial %d: Tally's host rows (len %d cap %d) differ from Split's %d", trial, len(got), cap(got), len(host))
			}
			if call == 1 && len(ids) > 0 && &got[:1][0] != &buf[:1][0] {
				t.Fatalf("trial %d: the second Tally did not reuse the buffer the first returned", trial)
			}
			buf = got
		}
		// Tally ran twice on the same request, Split once.
		for v := range split.counts {
			if 2*split.counts[v] != tally.counts[v] {
				t.Fatalf("trial %d: row %d hotness %v after one Split, %v after two Tallies", trial, v, split.counts[v], tally.counts[v])
			}
		}
	}
	if rerouted == 0 {
		t.Fatal("no trial re-routed a dead holder's rows")
	}
	t.Logf("%d of 60 trials re-routed dead holders' rows", rerouted)
}
