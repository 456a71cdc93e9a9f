package sim

import (
	"runtime"
	"testing"
)

// TestParkAllocations holds the steady-state cost of every blocking primitive
// to at most one allocation per park. The channel kernel paid 3 to 5 (the
// formatted reason, the parked-map entry, the re-sliced queues, the ladder's
// buckets); this one pays none, and the limit leaves room for the runtime's
// own occasional allocation. Each load (bench_test.go) runs twice on one
// engine: a short warm-up that sizes the run queue, the wait lists and the
// timer ladder, then the measured Run. Spawning is outside the window.
func TestParkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const procs, per = 8, 1000
	for _, c := range []struct {
		name  string
		parks int // parks per operation
		spawn load
	}{
		{"Sleep", 1, sleepLoad},
		{"ResourceUse", 2, resourceLoad},
		{"QueuePingPong", 1, queueLoad},
		{"WaitTimeout", 1, waitTimeoutLoad},
		{"Barrier", 2, barrierLoad},
	} {
		e := NewEngine()
		c.spawn(e, procs, 8)
		mustRun(t, e)
		c.spawn(e, procs, per)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(t, e)
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / float64(procs*per*c.parks)
		t.Logf("%s: %.3f allocations per park", c.name, got)
		if got > 1 {
			t.Errorf("%s: %.2f allocations per park, want <= 1", c.name, got)
		}
	}
}
