package bench

import "testing"

// BenchmarkPerfEpoch runs TestTrainPinned's paper row end to end; it is the
// profiling entry point for simulator wall-clock work (go test -bench
// PerfEpoch -cpuprofile ...). Kept small so CI's -benchtime=1x smoke stays
// fast.
func BenchmarkPerfEpoch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trainReport(trainRows[0], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4EpochTime is the heavy profiling workload: the full §5.2
// epoch-time grid. Skipped in -short mode (CI bench smoke).
func BenchmarkTable4EpochTime(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy profiling benchmark")
	}
	for i := 0; i < b.N; i++ {
		if _, err := Table4(RunConfig{Shrink: 12, Warmup: 1, Measure: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
