package strategy_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/train"
)

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// warmLoadAllocs builds opts' serving substrate on nGPU ranks, samples one
// batch of seeds rows per rank, loads it once to warm every table, then
// measures on rank 0 the allocations, and the bytes allocated, of one
// lockstep Load while every rank loads its batch again; it returns them with
// each rank's tier counts.
func warmLoadAllocs(t *testing.T, td *train.Data, opts train.Options, nGPU, seeds int) (float64, uint64, [][3]int64) {
	t.Helper()
	const calls = 20
	m := hw.NewMachine(nGPU, hw.V100(), hw.XeonE5())
	sub, err := strategy.Build(m, opts, strategy.Serving)
	if err != nil {
		t.Fatal(err)
	}
	var allocs float64
	var bytes uint64
	tiers := make([][3]int64, nGPU)
	for r := 0; r < nGPU; r++ {
		m.Eng.Go(fmt.Sprintf("gpu%d", r), func(p *sim.Proc) {
			ids := make([]graph.NodeID, seeds)
			for i := range ids {
				ids[i] = graph.NodeID(td.Offsets[r]) + graph.NodeID(i)
			}
			mb := sub.Worlds[0].SampleBatch(p, r, ids, opts.Sample, uint64(r))
			load := func() {
				l := sub.Strategy.Load(p, r, mb, sub.Loaders[0])
				tiers[r] = [3]int64{l.Tiers.Local, l.Tiers.Peer, l.Tiers.Host}
			}
			load()
			if r == 0 {
				allocs = testing.AllocsPerRun(calls, load)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range calls {
					load()
				}
				runtime.ReadMemStats(&after)
				bytes = (after.TotalAlloc - before.TotalAlloc) / calls
				return
			}
			for range 2*calls + 1 { // AllocsPerRun's warm-up and measured calls, then the byte count's
				load()
			}
		})
	}
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs, bytes, tiers
}

// TestWarmLoadAllocs: a warm cost-only DSP Load without the out-of-core tier
// charges its gather kernels and its request and reply all-to-alls from row
// counts, in tables it reuses, so with every row GPU-cached (no UVA side
// process to spawn) it allocates nothing. Rank 0 measures while every rank
// loads its batch in lockstep.
func TestWarmLoadAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	const nGPU = 4
	td := testData(t, nGPU)
	opts := realOpts(td, "dsp")
	opts.RealCompute = false
	allocs, _, tiers := warmLoadAllocs(t, td, opts, nGPU, 64)
	for r, tr := range tiers {
		if tr[1] == 0 || tr[2] != 0 {
			t.Fatalf("rank %d reads (local, peer, host) = %v rows: want peer rows and no host rows", r, tr)
		}
	}
	if allocs != 0 {
		t.Errorf("a warm Load on %d ranks allocates %v objects, want 0", nGPU, allocs)
	}
}

// TestWarmTieredLoadAllocs: a warm cost-only Load with host rows under the
// out-of-core tier and lfu-decay tracking lists its host rows and their
// feature blocks once, into tables it reuses, so it allocates exactly what
// the same Load allocates with neither — the UVA side process each rank
// spawns for its host rows, its event and the waits on it — and those are
// fixed objects: at four times the host rows the Load allocates as many
// bytes, give or take a wait's waiter list per rank. The block cache holds
// every block, so the warm touches fetch nothing.
func TestWarmTieredLoadAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	const nGPU = 4
	td := testData(t, nGPU)
	plain := realOpts(td, "dsp")
	plain.RealCompute = false
	plain.FeatureCacheBudget = 64 << 10
	tiered := plain
	tiered.OOC, tiered.OOCBudget = true, 1<<30
	tiered.DynamicCache = cache.LFUDecay
	var bytes [2]uint64
	var host [2]int64
	for i, seeds := range []int{512, 2048} {
		base, _, baseTiers := warmLoadAllocs(t, td, plain, nGPU, seeds)
		got, b, tiers := warmLoadAllocs(t, td, tiered, nGPU, seeds)
		for r, tr := range tiers {
			if tr[2] == 0 || tr != baseTiers[r] {
				t.Fatalf("%d seeds: rank %d reads (local, peer, host) = %v rows tiered, %v plain: want the same, with host rows", seeds, r, tr, baseTiers[r])
			}
		}
		t.Logf("%d seeds (%d host rows on rank 0): a warm lockstep Load on %d ranks allocates %v objects (%d bytes) tiered, %v plain", seeds, tiers[0][2], nGPU, got, b, base)
		if got != base {
			t.Errorf("%d seeds: a warm tiered Load allocates %v objects, the plain Load %v: want the same", seeds, got, base)
		}
		bytes[i], host[i] = b, tiers[0][2]
	}
	// A per-row array would add 4 bytes per host row on every rank; a
	// waiter list is a few dozen bytes.
	if grown := int64(bytes[1]) - int64(bytes[0]); grown > 64*nGPU {
		t.Errorf("a warm Load allocates %d bytes at %d host rows on rank 0 and %d at %d: want a fixed size", bytes[0], host[0], bytes[1], host[1])
	}
}
