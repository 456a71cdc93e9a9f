package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/train"
)

// dynamicOpts is a training config with a tight feature budget and the
// adaptive cache enabled: the regime where epoch-boundary rebalancing moves
// rows.
func dynamicOpts(td *train.Data) train.Options {
	opts := smallOpts(td)
	opts.DynamicCache = cache.LFUDecay
	opts.FeatureCacheBudget = int64(300 * td.FeatDim * 4)
	return opts
}

// TestDSPDynamicCacheAdaptsAcrossEpochs: with a dynamic policy, the
// epoch-boundary rebalance runs, charges migration bytes and time, and the
// tracker's tier counts cover every feature read of the epoch.
func TestDSPDynamicCacheAdaptsAcrossEpochs(t *testing.T) {
	td := testData(t, 4)
	sys, err := core.New(dynamicOpts(td))
	if err != nil {
		t.Fatal(err)
	}
	var promoted int64
	var sum train.Counters
	for e := 0; e < 2; e++ {
		st, err := sys.RunEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheLocal+st.CachePeer+st.CacheHost == 0 {
			t.Fatalf("epoch %d: no tiered reads recorded", e)
		}
		if st.CachePromoted > 0 && (st.RebalanceBytes == 0 || st.RebalanceTime <= 0) {
			t.Fatalf("epoch %d: promotion without cost: %+v", e, st)
		}
		promoted += st.CachePromoted
		sum.Add(st.Counters)
	}
	if promoted == 0 {
		t.Fatal("dynamic policy never promoted a row over two epochs")
	}
	if sum.Rebalances != 2 {
		t.Fatalf("rebalances %d, want one per epoch boundary", sum.Rebalances)
	}
	if sum.RebalanceBytes == 0 || !reflect.DeepEqual(sum, sys.Counters()) {
		t.Fatalf("epoch counters %+v do not sum to the cumulative snapshot %+v", sum, sys.Counters())
	}
}

// TestDSPDynamicCacheDeterministic: two same-seed dynamic training runs
// produce bit-identical epoch stats, including tier counts, rebalance byte
// totals and epoch times.
func TestDSPDynamicCacheDeterministic(t *testing.T) {
	run := func() []train.EpochStats {
		td := testData(t, 4)
		sys, err := core.New(dynamicOpts(td))
		if err != nil {
			t.Fatal(err)
		}
		var out []train.EpochStats
		for e := 0; e < 2; e++ {
			st, err := sys.RunEpoch(e)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st)
		}
		return out
	}
	a, b := run(), run()
	for e := range a {
		if a[e].EpochTime != b[e].EpochTime {
			t.Fatalf("epoch %d time diverged: %v vs %v", e, a[e].EpochTime, b[e].EpochTime)
		}
		if a[e].CacheLocal != b[e].CacheLocal || a[e].CachePeer != b[e].CachePeer ||
			a[e].CacheHost != b[e].CacheHost {
			t.Fatalf("epoch %d tiers diverged", e)
		}
		if a[e].CachePromoted != b[e].CachePromoted ||
			a[e].RebalanceBytes != b[e].RebalanceBytes ||
			a[e].RebalanceTime != b[e].RebalanceTime {
			t.Fatalf("epoch %d rebalance accounting diverged", e)
		}
	}
}

// TestDSPStaticCacheUnchanged: the default (static) policy records tier
// counts but never rebalances, and the replicated layout refuses a dynamic
// policy.
func TestDSPStaticCacheUnchanged(t *testing.T) {
	td := testData(t, 2)
	opts := smallOpts(td)
	opts.FeatureCacheBudget = int64(300 * td.FeatDim * 4)
	sys, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.CachePromoted != 0 || st.RebalanceBytes != 0 || st.RebalanceTime != 0 {
		t.Fatalf("static policy adapted: %+v", st)
	}
	if st.CacheLocal+st.CachePeer+st.CacheHost == 0 {
		t.Fatal("static policy recorded no tiered reads")
	}

	// The replicated layout has no per-GPU shard to rebalance, so it refuses
	// a dynamic policy instead of ignoring it.
	ropts := dynamicOpts(testData(t, 2))
	ropts.ReplicatedCache = true
	if _, err := core.New(ropts); err == nil || !strings.Contains(err.Error(), "DynamicCache") {
		t.Fatalf("replicated layout with a dynamic policy: err = %v, want a refusal naming DynamicCache", err)
	}
}
