package core_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
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
