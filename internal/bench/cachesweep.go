package bench

import (
	"repro/internal/cache"
	"repro/internal/serve"
	"repro/internal/train"
)

// cacheSweepPolicies are the adaptive-cache policies under comparison.
var cacheSweepPolicies = []cache.Policy{cache.Static, cache.LFUDecay, cache.DegreeHybrid}

// CacheSweep compares the static presample placement against the dynamic
// cache policies on a drifting-popularity serving workload at a deliberately
// tight feature budget. Columns: measured GPU-cache hit rate, host-memory
// read volume (the cost of every miss), migration volume (the price of
// adaptation) and the rebalancer's share of virtual time.
//
// Expected ordering: both dynamic policies beat static on hit rate once the
// popularity drifts away from the degree ranking — the offline placement
// cannot follow the workload, the tracker can. The dynamic policies pay for
// it in migrated bytes and rebalance time; static pays nothing and serves
// ever more reads from host memory.
func CacheSweep(cfg RunConfig) (*Table, error) {
	cols := []string{"hit%", "host MB", "migrated MB", "rebal%"}
	rows := make([]string, len(cacheSweepPolicies))
	for i, p := range cacheSweepPolicies {
		rows[i] = p.String()
	}
	t := NewTable("Serving: cache policy under popularity drift (products-sim, 4 GPUs)", "mixed", rows, cols)

	td := prepared("products", 4, cfg.Shrink, false, true)
	// ~5% of each GPU's owned rows: small enough that placement quality,
	// not capacity, decides the hit rate.
	budget := int64(td.G.NumNodes()/4/20) * int64(td.RowBytes())
	for _, pol := range cacheSweepPolicies {
		rep, err := serve.Serve(cacheSweepConfig(td, pol, budget))
		if err != nil {
			return nil, err
		}
		t.Set(pol.String(), "hit%", 100*rep.CacheHitRate())
		t.Set(pol.String(), "host MB", float64(rep.CacheHost*int64(td.RowBytes()))/1e6)
		t.Set(pol.String(), "migrated MB", float64(rep.RebalanceBytes)/1e6)
		if rep.Makespan > 0 {
			t.Set(pol.String(), "rebal%", 100*float64(rep.RebalanceTime)/float64(rep.Makespan))
		}
	}
	t.Notes = append(t.Notes,
		"popularity permutation re-drawn every 0.1 s of virtual time; feature budget ~5% of owned rows per GPU",
		"expected: dynamic policies (lfu-decay, degree-hybrid) above static on hit%, at the cost of migrated MB and rebal%",
	)
	return t, nil
}

// cacheSweepConfig is the drift-serving configuration shared by all rows:
// only the cache policy varies, so hit-rate differences are attributable.
func cacheSweepConfig(td *train.Data, pol cache.Policy, budget int64) serve.Config {
	c := serveConfig(td, serve.BatchDynamic, 4000)
	c.Skew = 1.2
	c.FeatureCacheBudget = budget
	c.DynamicCache = pol
	c.RebalanceEvery = 5e-3
	c.DriftEvery = 0.1
	c.CacheDecay = 0.9
	return c
}
