package core_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sample"
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

// TestFeatCodecAddsNoGarbage: a feature codec only prices the modelled
// feature reply, so a cost-only epoch under int8 allocates within 2 % of the
// bytes the same epoch allocates without a codec. (While the reply posted
// zero vectors that every receiver encoded and decoded, the int8 epoch
// allocated several times more.)
func TestFeatCodecAddsNoGarbage(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	td := testData(t, 4)
	epochBytes := func(codec compress.Codec) uint64 {
		o := smallOpts(td)
		o.FeatCodec = codec
		sys, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunEpoch(0); err != nil { // warm-up: pools and workspaces
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sys.RunEpoch(1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	plain, coded := epochBytes(nil), epochBytes(compress.NewInt8(3))
	t.Logf("epoch allocates %d bytes without a codec, %d under int8", plain, coded)
	if float64(coded) > 1.02*float64(plain) {
		t.Errorf("int8 feature codec epoch allocates %d bytes, more than 2%% over %d without a codec", coded, plain)
	}
}

// TestEpochRecyclesSampledBlocks: the trainer hands each batch back to the
// world that sampled it and the next batch is built in its arrays, so a
// steady-state cost-only epoch of 17 steps allocates under half the block
// bytes it samples; most of what is left is the loader's split lists. (While
// every batch's blocks were allocated fresh, the epoch allocated 1.7 times
// those bytes.)
func TestEpochRecyclesSampledBlocks(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	td := testData(t, 4)
	o := smallOpts(td)
	o.BatchSize = 64
	sys, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunEpoch(0); err != nil { // warm-up: workspaces and free lists
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sys.RunEpoch(1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	epoch := after.TotalAlloc - before.TotalAlloc
	// The epoch's blocks, resampled by the reference sampler: every array a
	// block holds, at 4 bytes an entry.
	var blocks uint64
	sched := train.NewSchedule(td, o.BatchSize)
	for step := 0; step < sys.Steps(); step++ {
		for rank := 0; rank < td.NumGPUs(); rank++ {
			mb := sample.Reference(td.G, sched.Batch(td, o.Seed, 1, step, rank), o.Sample, train.BatchSeed(o.Seed, 1, step, rank))
			for _, b := range mb.Blocks {
				blocks += 4 * uint64(len(b.Src)+len(b.SrcPtr)+len(b.SrcLocal)+len(b.InputNodes))
			}
		}
	}
	ratio := float64(epoch) / float64(blocks)
	t.Logf("epoch allocates %d bytes for %d sampled block bytes (%.3f)", epoch, blocks, ratio)
	if ratio > 0.5 {
		t.Errorf("a steady-state epoch allocates %.2f x the block bytes it samples, want <= 0.5", ratio)
	}
}

// TestCostOnlyRunDrawsNoFeatures: a cost-only run never reads a feature
// value, so preparing a friendster stand-in (the widest rows, 256 dims),
// building the system and running one epoch allocate less than one
// n x FeatDim x 4 feature table: about half of one. (While Generate drew every
// row and Prepare copied them into layout order, Prepare alone allocated that
// table.) Hash partitioning keeps METIS's working set, four such tables here,
// out of the sum.
func TestCostOnlyRunDrawsNoFeatures(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	d := gen.Generate(gen.StandardDataset("friendster", 16).Config)
	table := uint64(d.G.NumNodes()) * uint64(d.FeatDim) * 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	td := train.Prepare(d, 4, 1, false)
	o := smallOpts(td)
	o.BatchSize = 64
	sys, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("prepare, build and one epoch allocate %d bytes; the feature table is %d", got, table)
	if got >= table {
		t.Errorf("a cost-only prepare, build and epoch allocate %d bytes, want under one feature table (%d)", got, table)
	}
}
