package strategy_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/strategy"
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

// TestWarmLoadAllocs: a warm cost-only DSP Load without the out-of-core tier
// charges its gather kernels and its request and reply all-to-alls from row
// counts, in tables it reuses, so with every row GPU-cached (no UVA side
// process to spawn) it allocates nothing. Rank 0 measures while every rank
// loads its batch in lockstep.
func TestWarmLoadAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	const nGPU, calls = 4, 20
	td := testData(t, nGPU)
	opts := realOpts(td, "dsp")
	opts.RealCompute = false
	m := hw.NewMachine(nGPU, hw.V100(), hw.XeonE5())
	sub, err := strategy.Build(m, opts, strategy.Serving)
	if err != nil {
		t.Fatal(err)
	}
	var allocs float64
	var tiers [nGPU][3]int64
	for r := 0; r < nGPU; r++ {
		m.Eng.Go(fmt.Sprintf("gpu%d", r), func(p *sim.Proc) {
			seeds := make([]graph.NodeID, 64)
			for i := range seeds {
				seeds[i] = graph.NodeID(td.Offsets[r]) + graph.NodeID(i)
			}
			mb := sub.Worlds[0].SampleBatch(p, r, seeds, opts.Sample, uint64(r))
			load := func() {
				l := sub.Strategy.Load(p, r, mb, sub.Loaders[0])
				tiers[r] = [3]int64{l.Tiers.Local, l.Tiers.Peer, l.Tiers.Host}
			}
			load()
			if r == 0 {
				allocs = testing.AllocsPerRun(calls, load)
				return
			}
			for range calls + 1 { // AllocsPerRun's warm-up call, then the measured ones
				load()
			}
		})
	}
	if _, err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r, tr := range tiers {
		if tr[1] == 0 || tr[2] != 0 {
			t.Fatalf("rank %d reads (local, peer, host) = %v rows: want peer rows and no host rows", r, tr)
		}
	}
	if allocs != 0 {
		t.Errorf("a warm Load on %d ranks allocates %v objects, want 0", nGPU, allocs)
	}
}
