package serve

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/sim"
)

// driftConfig is a serving run under popularity drift with a tight feature
// budget: the regime where the offline degree placement decays and adaptive
// caching has something to win.
func driftConfig(t testing.TB) Config {
	cfg := testConfig(t, 4)
	cfg.Duration = 0.3
	cfg.Rate = 3000
	cfg.Skew = 1.5
	cfg.DriftEvery = 0.1 // 3 popularity phases over the horizon
	cfg.RebalanceEvery = 5e-3
	// Slow decay: the tracker remembers most of a phase, not just the last
	// couple of rounds, so promotion decisions are not sampling noise.
	cfg.CacheDecay = 0.9

	// ~80 rows per GPU out of ~750 owned: heavy cache pressure.
	cfg.FeatureCacheBudget = int64(80 * cfg.Data.FeatDim * 4)
	return cfg
}

// TestDynamicCacheBeatsStaticUnderDrift is the PR's acceptance regression:
// under a drifting-popularity workload at equal budget, the LFU-decay policy
// achieves a strictly higher aggregate GPU-cache hit rate than the static
// presample baseline, and the adaptation is visibly charged (rebalances ran,
// bytes migrated).
func TestDynamicCacheBeatsStaticUnderDrift(t *testing.T) {
	st := driftConfig(t)
	st.DynamicCache = cache.Static
	static, err := Serve(st)
	if err != nil {
		t.Fatal(err)
	}
	dy := driftConfig(t)
	dy.DynamicCache = cache.LFUDecay
	lfu, err := Serve(dy)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("static hit %.3f  lfu hit %.3f  rebalances %d  migrated %d B  overhead %v",
		static.CacheHitRate(), lfu.CacheHitRate(),
		lfu.Rebalances, lfu.RebalanceBytes, lfu.RebalanceTime)
	if lfu.CacheHitRate() <= static.CacheHitRate() {
		t.Fatalf("LFU-decay hit rate %.4f not above static %.4f under drift",
			lfu.CacheHitRate(), static.CacheHitRate())
	}
	if lfu.Rebalances == 0 || lfu.CachePromoted == 0 || lfu.RebalanceBytes == 0 {
		t.Fatalf("dynamic run did not adapt: %d rebalances, %d rows, %d bytes",
			lfu.Rebalances, lfu.CachePromoted, lfu.RebalanceBytes)
	}
	if lfu.RebalanceTime <= 0 {
		t.Fatal("rebalance overhead not charged to virtual time")
	}
	if static.Rebalances != 0 || static.RebalanceBytes != 0 {
		t.Fatalf("static run rebalanced: %+v", static.Rebalances)
	}
}

// TestDynamicCacheDeterminism: two same-seed dynamic runs produce
// bit-identical reports, including per-tier counts and rebalance byte
// totals.
func TestDynamicCacheDeterminism(t *testing.T) {
	run := func() *Report {
		cfg := driftConfig(t)
		cfg.DynamicCache = cache.DegreeHybrid
		rep, err := Serve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Tiers != b.Tiers {
		t.Fatalf("fleet tiers diverged: %+v vs %+v", a.Tiers, b.Tiers)
	}
	if a.Rebalances != b.Rebalances || a.CachePromoted != b.CachePromoted ||
		a.RebalanceBytes != b.RebalanceBytes || a.RebalanceTime != b.RebalanceTime {
		t.Fatalf("rebalance accounting diverged: %d/%d/%d/%v vs %d/%d/%d/%v",
			a.Rebalances, a.CachePromoted, a.RebalanceBytes, a.RebalanceTime,
			b.Rebalances, b.CachePromoted, b.RebalanceBytes, b.RebalanceTime)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("request traces differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i].Done != b.Requests[i].Done || a.Requests[i].Node != b.Requests[i].Node {
			t.Fatalf("request %d diverged", i)
		}
	}
	if a.Rebalances == 0 {
		t.Fatal("determinism run never rebalanced")
	}
}

// TestReportTierConsistency: the flat row counts and the Tiers struct agree,
// and the derived hit rate matches.
func TestReportTierConsistency(t *testing.T) {
	cfg := driftConfig(t)
	cfg.DynamicCache = cache.LFUDecay
	rep, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tiers.Local != rep.CacheLocal || rep.Tiers.Peer != rep.CachePeer ||
		rep.Tiers.Host != rep.CacheHost {
		t.Fatalf("counter set disagrees with Tiers: %+v vs %d/%d/%d",
			rep.Tiers, rep.CacheLocal, rep.CachePeer, rep.CacheHost)
	}
	if rep.Tiers.Total() == 0 {
		t.Fatal("no reads accounted")
	}
	if got, want := rep.CacheHitRate(), rep.Tiers.HitRate(); got != want {
		t.Fatalf("derived hit rate %g != tiers hit rate %g", got, want)
	}
}

// TestWorkloadDrift: phase 0 is the identity mapping (no behaviour change
// when drift is off), later phases permute it, and the mapping is a pure
// function of (seed, phase).
func TestWorkloadDrift(t *testing.T) {
	d := testData(t, 2)
	plain := NewWorkload(d, 0.9, 0, 7)
	drift := NewWorkload(d, 0.9, 0.1, 7)

	ra, rb := rng.New(3), rng.New(3)
	for i := 0; i < 200; i++ {
		now := sim.Time(i) * 4e-4 // stays inside phase 0
		if plain.Draw(ra, now) != drift.Draw(rb, now) {
			t.Fatal("phase 0 is not the identity mapping")
		}
	}
	// Later phases change which nodes are hot: the head of the ranking (the
	// bulk of the mass under skew) must not map to the same nodes.
	same := 0
	const probe = 50
	for i := 0; i < probe; i++ {
		ra, rb := rng.New(uint64(i)), rng.New(uint64(i))
		if drift.Draw(ra, 0.05) == drift.Draw(rb, 0.15) {
			same++
		}
	}
	if same == probe {
		t.Fatal("drift phase 1 identical to phase 0")
	}
	// Pure function of phase: re-querying an earlier phase after a later one
	// reproduces it exactly.
	r1, r2 := rng.New(99), rng.New(99)
	first := drift.Draw(r1, 0.15)
	_ = drift.Draw(rng.New(1), 0.25) // advance to phase 2
	if again := drift.Draw(r2, 0.15); again != first {
		t.Fatalf("phase 1 not reproducible: %d vs %d", first, again)
	}
}
