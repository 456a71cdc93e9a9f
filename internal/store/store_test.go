package store

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sim"
)

// testSpill is a device with round numbers: 1 ms access, 1 GB/s.
func testSpill() hw.SpillSpec {
	return hw.SpillSpec{Name: "test", Bandwidth: 1e9, Latency: 1e-3, QueueDepth: 2}
}

// uniformCSR builds n nodes each with degree d (neighbours ascending).
func uniformCSR(n, d int) *graph.CSR {
	var src, dst []graph.NodeID
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			src = append(src, graph.NodeID((v+j+1)%n))
			dst = append(dst, graph.NodeID(v))
		}
	}
	return graph.FromEdges(n, src, dst)
}

func TestDemandMissChargesIO(t *testing.T) {
	eng := sim.NewEngine()
	g := uniformCSR(64, 4)
	st, err := New(eng, g, 0, 0, Config{
		BlockNodes: 16, CacheBytes: g.TopologyBytes(), Spill: testSpill(),
	})
	if err != nil {
		t.Fatal(err)
	}
	blockBytes := g.RangeBytes(0, 16)
	want := sim.Time(1e-3 + float64(blockBytes)/1e9)
	var got sim.Time
	eng.Go("reader", func(p *sim.Proc) {
		st.TouchTopology(p, []graph.NodeID{0, 1, 15})
		got = p.Now()
		// Second touch of the same block is free.
		st.TouchTopology(p, []graph.NodeID{3})
		if p.Now() != got {
			t.Errorf("resident touch advanced time: %v -> %v", got, p.Now())
		}
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("demand fetch took %v, want %v", got, want)
	}
	s := st.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}
	if s.DemandBytes != blockBytes {
		t.Errorf("demand bytes %d, want %d", s.DemandBytes, blockBytes)
	}
	if s.StallTime != want {
		t.Errorf("stall %v, want %v", s.StallTime, want)
	}
	if s.DeviceReads != 1 || s.DeviceBytes != blockBytes {
		t.Errorf("device reads=%d bytes=%d", s.DeviceReads, s.DeviceBytes)
	}
}

func TestCompressedDecodeCharged(t *testing.T) {
	eng := sim.NewEngine()
	g := graph.Compress(uniformCSR(64, 4))
	st, err := New(eng, g, 0, 0, Config{
		BlockNodes: 16, CacheBytes: g.TopologyBytes(),
		Spill: testSpill(), DecodeRate: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	blockBytes := g.RangeBytes(0, 16)
	want := sim.Time(1e-3 + float64(blockBytes)/1e9 + float64(blockBytes)/1e6)
	var got sim.Time
	eng.Go("reader", func(p *sim.Proc) {
		st.TouchTopology(p, []graph.NodeID{0})
		got = p.Now()
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("compressed fetch took %v, want %v (decode charged)", got, want)
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	eng := sim.NewEngine()
	g := uniformCSR(64, 4) // four 16-node blocks, equal sizes except sentinel
	b0 := g.RangeBytes(0, 16)
	st, err := New(eng, g, 0, 0, Config{
		BlockNodes: 16, CacheBytes: 2*b0 + 16, Spill: testSpill(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("reader", func(p *sim.Proc) {
		st.TouchTopology(p, []graph.NodeID{0})  // block 0
		st.TouchTopology(p, []graph.NodeID{16}) // block 1
		st.TouchTopology(p, []graph.NodeID{32}) // block 2 -> evicts block 0 (LRU)
		st.TouchTopology(p, []graph.NodeID{16}) // still resident
		st.TouchTopology(p, []graph.NodeID{0})  // miss again
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4 (block 0 evicted and refetched)", s.Misses)
	}
	if s.Hits != 1 {
		t.Errorf("hits = %d, want 1 (block 1 survived)", s.Hits)
	}
	if s.ResidentBytes > st.CacheBytes() {
		t.Errorf("resident %d exceeds budget %d", s.ResidentBytes, st.CacheBytes())
	}
	if s.ResidentBytes+s.SpilledBytes != s.BlockBytes {
		t.Errorf("resident+spilled = %d, want %d", s.ResidentBytes+s.SpilledBytes, s.BlockBytes)
	}
}

func TestPrefetchOverlapsAndCounts(t *testing.T) {
	eng := sim.NewEngine()
	g := uniformCSR(64, 4)
	st, err := New(eng, g, 0, 0, Config{
		BlockNodes: 16, CacheBytes: g.TopologyBytes(),
		Prefetch: true, Spill: testSpill(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("reader", func(p *sim.Proc) {
		st.PrefetchTopology([]graph.NodeID{0, 16})
		p.Sleep(0.1) // far longer than both fetches
		t0 := p.Now()
		st.TouchTopology(p, []graph.NodeID{0, 16})
		if p.Now() != t0 {
			t.Errorf("fully-overlapped touch stalled %v", p.Now()-t0)
		}
		// Prefetch then touch immediately: reader waits on the in-flight
		// event, paying only the remainder, and it still counts as a hit.
		st.PrefetchTopology([]graph.NodeID{32})
		t1 := p.Now()
		st.TouchTopology(p, []graph.NodeID{32})
		stall := p.Now() - t1
		full := sim.Time(1e-3 + float64(g.RangeBytes(32, 48))/1e9)
		if stall <= 0 || stall > full {
			t.Errorf("in-flight wait stalled %v, want (0, %v]", stall, full)
		}
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Misses != 0 {
		t.Errorf("misses = %d, want 0 with prefetch", s.Misses)
	}
	if s.Hits != 3 {
		t.Errorf("hits = %d, want 3", s.Hits)
	}
	if s.PrefetchIssued != 3 || s.PrefetchUsed != 3 {
		t.Errorf("prefetch issued=%d used=%d, want 3/3", s.PrefetchIssued, s.PrefetchUsed)
	}
	if s.PrefetchAccuracy() != 1 {
		t.Errorf("accuracy = %v, want 1", s.PrefetchAccuracy())
	}
	if s.DemandBytes != 0 {
		t.Errorf("demand bytes = %d, want 0", s.DemandBytes)
	}
}

func TestPrefetchDisabledIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	g := uniformCSR(64, 4)
	st, err := New(eng, g, 0, 0, Config{BlockNodes: 16, Spill: testSpill()})
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("reader", func(p *sim.Proc) {
		st.PrefetchTopology([]graph.NodeID{0})
		p.Sleep(0.1)
		st.TouchTopology(p, []graph.NodeID{0})
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.PrefetchIssued != 0 || s.Misses != 1 {
		t.Errorf("issued=%d misses=%d, want 0/1 with prefetch off", s.PrefetchIssued, s.Misses)
	}
}

func TestFeatureTierSeparateBlocks(t *testing.T) {
	eng := sim.NewEngine()
	g := uniformCSR(32, 2)
	const rows, rowBytes = 32, 256
	st, err := New(eng, g, rows, rowBytes, Config{
		BlockNodes: 16, CacheBytes: 1 << 30, Spill: testSpill(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("reader", func(p *sim.Proc) {
		st.Touch(p, st.FeatureBlocks(nil, []graph.NodeID{0, 17})) // both feature blocks
		st.TouchTopology(p, []graph.NodeID{0})                    // topology block 0 still cold
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Blocks != 4 || s.TopoBlocks != 2 {
		t.Fatalf("blocks=%d topo=%d, want 4/2", s.Blocks, s.TopoBlocks)
	}
	if s.Misses != 3 {
		t.Errorf("misses = %d, want 3 (feature and topology tiers are distinct)", s.Misses)
	}
	wantFeat := int64(2 * 16 * rowBytes)
	if got := s.DemandBytes - g.RangeBytes(0, 16); got != wantFeat {
		t.Errorf("feature demand bytes = %d, want %d", got, wantFeat)
	}
}

func TestMaxInflightBoundsPrefetch(t *testing.T) {
	eng := sim.NewEngine()
	g := uniformCSR(128, 4) // eight 16-node blocks
	st, err := New(eng, g, 0, 0, Config{
		BlockNodes: 16, CacheBytes: 1 << 30,
		Prefetch: true, MaxInflight: 2, Spill: testSpill(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("reader", func(p *sim.Proc) {
		all := make([]graph.NodeID, 0, 8)
		for b := 0; b < 8; b++ {
			all = append(all, graph.NodeID(b*16))
		}
		st.PrefetchTopology(all)
	})
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// MaxInflight bounds concurrency, not coverage: every predicted block is
	// eventually fetched, two at a time — so the makespan is four serialised
	// waves of the ~1 ms device latency, not one.
	if s := st.Stats(); s.PrefetchIssued != 8 {
		t.Errorf("issued = %d, want 8 (queue drains as slots free)", s.PrefetchIssued)
	}
	if end < 3.5e-3 || end > 4.5e-3 {
		t.Errorf("makespan = %v, want ~4ms (4 waves of 2 concurrent fetches)", end)
	}
}

// runScenario drives a randomized but seeded access pattern and returns the
// final stats, for the determinism check below.
func runScenario(seed int64) Stats {
	eng := sim.NewEngine()
	g := uniformCSR(256, 6)
	st, _ := New(eng, g, 256, 128, Config{
		BlockNodes: 32, CacheBytes: g.TopologyBytes() / 2,
		Prefetch: true, Spill: testSpill(),
	})
	for w := 0; w < 3; w++ {
		w := w
		eng.Go("worker", func(p *sim.Proc) {
			lr := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < 40; i++ {
				ids := []graph.NodeID{graph.NodeID(lr.Intn(256))}
				if lr.Intn(2) == 0 {
					st.PrefetchTopology([]graph.NodeID{graph.NodeID(lr.Intn(256))})
				}
				st.TouchTopology(p, ids)
				st.Touch(p, st.FeatureBlocks(nil, ids))
				p.Sleep(sim.Time(float64(lr.Intn(5)) * 1e-4))
			}
		})
	}
	eng.Run()
	return st.Stats()
}

func TestDeterministicStats(t *testing.T) {
	a := runScenario(42)
	b := runScenario(42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", a, b)
	}
	if a.Hits+a.Misses == 0 {
		t.Fatal("scenario produced no traffic")
	}
}

// refUniqueBlocks is uniqueBlocks as it was: a map of the blocks seen.
func refUniqueBlocks(s *Store, ids []graph.NodeID, base int) []int {
	seen := make(map[int]struct{}, 8)
	var out []int
	for _, v := range ids {
		b := base + int(v)/s.blockNodes
		if _, ok := seen[b]; ok {
			continue
		}
		seen[b] = struct{}{}
		out = append(out, b)
	}
	return out
}

// TestUniqueBlocksMatchesMap: on random id streams over both tiers — empty,
// repeating, spanning every block, so the scan stops early — the stamped
// table lists the same blocks in the same first-appearance order as the map,
// through a wrap of the generation counter, appended to what the caller's
// buffer already holds.
func TestUniqueBlocksMatchesMap(t *testing.T) {
	const n = 500
	eng := sim.NewEngine()
	s, err := New(eng, uniformCSR(n, 3), n, 64, Config{BlockNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	// Stamps as a wrapped counter would reach again: a block stamped long ago
	// must not read as listed once the generation comes round.
	for b := range s.seen {
		s.seen[b] = uint32(b%4 + 1)
	}
	s.gen = ^uint32(0) - 3
	var buf []int
	stopped := 0 // calls whose stream listed every block of its tier
	for call := 0; call < 400; call++ {
		ids := make([]graph.NodeID, r.Intn(40))
		if call%5 == 4 {
			ids = make([]graph.NodeID, 300+r.Intn(300))
		}
		for i := range ids {
			ids[i] = graph.NodeID(r.Intn(n))
		}
		base, nBlocks := 0, s.nTopo
		if call%2 == 1 {
			base, nBlocks = s.nTopo, len(s.blocks)-s.nTopo
		}
		want := refUniqueBlocks(s, ids, base)
		if got := s.uniqueBlocks(nil, ids, base, nBlocks); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d (gen %d): got %v, want %v", call, s.gen, got, want)
		}
		if len(want) == nBlocks {
			stopped++
		}
		// Into a reused buffer, after what it already holds.
		buf = append(buf[:0], -1)
		buf = s.uniqueBlocks(buf, ids, base, nBlocks)
		if buf[0] != -1 || !slices.Equal(buf[1:], want) {
			t.Fatalf("call %d: into a buffer got %v, want [-1] then %v", call, buf, want)
		}
	}
	if stopped == 0 {
		t.Fatal("no stream listed every block of its tier")
	}
}
