package bench

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/train"
)

// TestOOCSweepFrontier runs the full memory-vs-throughput frontier at a fast
// shrink and asserts the subsystem's headline claims. OOCSweep itself fails
// on the two ISSUE acceptance criteria (>=3x compression, prefetch strictly
// faster at equal budget); the checks below pin the frontier's shape.
func TestOOCSweepFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("real-compute sweep")
	}
	cfg := RunConfig{Shrink: 16, Warmup: 1, Measure: 2}
	tab, err := OOCSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The memory axis is monotone in the intended direction: every ooc point
	// holds fewer resident bytes than flat in-core, and the 50% budget holds
	// fewer than the 75% budget.
	flat := tab.Get("flat in-core", "resident MB")
	for _, row := range []string{"comp in-core", "ooc 50% +pf", "ooc 50% -pf"} {
		if got := tab.Get(row, "resident MB"); got >= flat {
			t.Errorf("%s resident %.2f MB not below flat in-core's %.2f MB", row, got, flat)
		}
	}
	if hi, lo := tab.Get("ooc 75% +pf", "resident MB"), tab.Get("ooc 50% +pf", "resident MB"); lo >= hi {
		t.Errorf("50%% budget resident %.2f MB not below 75%%'s %.2f MB", lo, hi)
	}

	// Out-of-core costs throughput: epoch time rises once the host tier is in
	// the path, and all epochs are positive.
	inCore := tab.Get("comp in-core", "epoch s")
	for _, row := range tab.Rows {
		e := tab.Get(row, "epoch s")
		if e <= 0 {
			t.Errorf("%s epoch %.6fs not positive", row, e)
		}
	}
	for _, row := range []string{"ooc 75% +pf", "ooc 50% +pf"} {
		if e := tab.Get(row, "epoch s"); e <= inCore {
			t.Errorf("%s epoch %.6fs not above in-core %.6fs (tier should cost something)", row, e, inCore)
		}
	}

	// The prefetcher earns its keep through the hit rate, and its accuracy is
	// real (most prefetched blocks get used before eviction).
	for _, frac := range []string{"75%", "50%"} {
		on, off := tab.Get("ooc "+frac+" +pf", "hit%"), tab.Get("ooc "+frac+" -pf", "hit%")
		if on <= off {
			t.Errorf("prefetch-on hit rate %.1f%% not above prefetch-off %.1f%% at %s budget", on, off, frac)
		}
		if acc := tab.Get("ooc "+frac+" +pf", "pf acc%"); acc < 50 {
			t.Errorf("prefetch accuracy %.1f%% below 50%% at %s budget", acc, frac)
		}
	}
}

// TestOOCRunReportByteIdentical is the ISSUE's determinism acceptance: the
// same seed and flags produce byte-identical dsp-runreport/1 output for an
// out-of-core run, including the store section.
func TestOOCRunReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real-compute run")
	}
	td := prepared("products", 4, 16, false, true)
	compBytes := graph.Compress(td.G).TopologyBytes()
	blockBytes := compBytes + int64(td.G.NumNodes())*int64(td.RowBytes())
	point := oocPoint{name: "det", compress: true, ooc: true, budgetFrac: 0.50, prefetch: true}

	report := func() []byte {
		sys, err := core.New(oocSweepOpts(td, point, blockBytes, RunConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		var epochs []train.EpochStats
		for e := 0; e < 2; e++ {
			st, err := sys.RunEpoch(e)
			if err != nil {
				t.Fatal(err)
			}
			epochs = append(epochs, st)
		}
		rep := train.BuildRunReport(epochs, nil, nil)
		rep.Command, rep.System, rep.Dataset = "dsptrain", "DSP", "products-sim"
		rep.GPUs, rep.Seed, rep.Shrink = 4, 13, 16
		if err := rep.Validate(); err != nil {
			t.Fatalf("report fails its own validation: %v", err)
		}
		data, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	a, b := report(), report()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed+flags produced different dsp-runreport/1 bytes:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
	if st := report(); !bytes.Equal(a, st) {
		t.Fatal("third run diverges from the first")
	}
}
