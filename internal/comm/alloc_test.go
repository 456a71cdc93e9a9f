package comm

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
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

// TestWarmExchangeAllocs: an all-to-all given a receive table allocates
// nothing once its communicator has seen the payload type — the post is not
// boxed and the table is the caller's — for counts and for slice payloads,
// and an all-gather given one, with and without a membership view. Rank 0 measures while every rank
// runs the same calls.
func TestWarmExchangeAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	const n, calls = 4, 50
	for _, viewed := range []bool{false, true} {
		m, c := newWorld(n)
		if viewed {
			c.SetView(fault.NewView(n))
		}
		var allocs float64
		for r := 0; r < n; r++ {
			m.Eng.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				counts, countsIn := make([]int, n), make([]int, n)
				out, in := make([][]int32, n), make([][]int32, n)
				seed, seeds := []uint64{uint64(r)}, make([][]uint64, n)
				for q := range out {
					counts[q] = 8 * q
					out[q] = make([]int32, q)
				}
				exchange := func() {
					c.Begin(r)
					countsIn = AllToAllCounts(c, p, r, counts, countsIn, Raw(4, hw.TrafficFeature))
					in = AllToAllInto(c, p, r, out, in, Raw(4, hw.TrafficSample))
					seeds = AllGather(c, p, r, seed, seeds, Raw(8, hw.TrafficOther))
				}
				exchange() // the communicator meets every payload type
				if r == 0 {
					allocs = testing.AllocsPerRun(calls, exchange)
					return
				}
				for range calls + 1 { // AllocsPerRun's warm-up call, then the measured ones
					exchange()
				}
			})
		}
		if _, err := m.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("view %v: a warm pair of all-to-alls on %d ranks allocates %v objects, want 0", viewed, n, allocs)
		}
	}
}
