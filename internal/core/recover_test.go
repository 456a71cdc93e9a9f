package core_test

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/train"
)

func recoverOpts(td *train.Data, faults []fault.Fault) train.Options {
	return train.Options{
		Data:        td,
		Model:       nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 16, Classes: td.NumClasses, Layers: 2},
		Sample:      sample.Config{Fanout: []int{8, 6}},
		BatchSize:   512,
		Pipeline:    true,
		UseCCC:      true,
		RealCompute: true,
		Seed:        77,
		Faults:      faults,
	}
}

// runFT drives a full FT run and returns the report plus final parameters.
func runFT(t *testing.T, td *train.Data, faults []fault.Fault, epochs, ckptEvery int, mutate ...func(*train.Options)) (*train.FTReport, []float32) {
	t.Helper()
	build := func() (train.Recoverable, error) {
		o := recoverOpts(td, faults)
		for _, m := range mutate {
			m(&o)
		}
		return core.New(o)
	}
	sys, err := build()
	if err != nil {
		t.Fatal(err)
	}
	mgr := &ckpt.Manager{EverySteps: ckptEvery}
	rep, err := train.RunRecoverable(sys, epochs, mgr, build)
	if err != nil {
		t.Fatalf("FT run: %v", err)
	}
	last := mgr.Last()
	if last == nil {
		t.Fatalf("no final checkpoint")
	}
	return rep, last.Params
}

// TestCrashRecoveryMatchesCrashFreeRun is the headline acceptance test: a
// training run with a mid-epoch GPU crash checkpoints, recovers on a rebuilt
// fleet, and converges to the same final parameters — bit for bit — as a
// crash-free run with the same seed and checkpoint cadence.
func TestCrashRecoveryMatchesCrashFreeRun(t *testing.T) {
	td := testData(t, 4)
	crash := []fault.Fault{{Kind: fault.Crash, GPU: 2, At: 0.005}}

	clean, cleanParams := runFT(t, td, nil, 2, 4)
	crashed, crashedParams := runFT(t, td, crash, 2, 4)

	if len(clean.Recoveries) != 0 {
		t.Fatalf("crash-free run recorded %d recoveries", len(clean.Recoveries))
	}
	if len(crashed.Recoveries) == 0 {
		t.Fatalf("crash run recorded no recoveries (fault never fired?)")
	}
	rec := crashed.Recoveries[0]
	if rec.GPU != 2 {
		t.Errorf("recovery blamed GPU %d, want 2", rec.GPU)
	}
	if rec.MTTR <= 0 || rec.RestoreTime <= 0 {
		t.Errorf("recovery stats not populated: %+v", rec)
	}
	if crashed.TotalTime <= clean.TotalTime {
		t.Errorf("crashed run (%v) not slower than clean run (%v)", crashed.TotalTime, clean.TotalTime)
	}
	if len(cleanParams) == 0 || len(cleanParams) != len(crashedParams) {
		t.Fatalf("param vectors missing or mismatched: %d vs %d", len(cleanParams), len(crashedParams))
	}
	for i := range cleanParams {
		if cleanParams[i] != crashedParams[i] {
			t.Fatalf("param %d differs after recovery: %g vs %g (resume must be bit-identical)",
				i, cleanParams[i], crashedParams[i])
		}
	}
	// Epoch training stats are merged segment-by-segment in the same order,
	// so the loss curves match bitwise too.
	for e := range clean.Epochs {
		c, x := clean.Epochs[e], crashed.Epochs[e]
		if c.Loss != x.Loss || c.Correct != x.Correct || c.Seen != x.Seen {
			t.Fatalf("epoch %d stats diverge: clean %+v crashed %+v", e, c, x)
		}
	}
	// A crashed segment never committed, and its replay commits exactly once
	// — so both runs commit the same checkpoint sequence.
	if crashed.Ckpt.Checkpoints != clean.Ckpt.Checkpoints {
		t.Errorf("crashed run committed %d checkpoints, clean %d (want equal)",
			crashed.Ckpt.Checkpoints, clean.Ckpt.Checkpoints)
	}
	if pct := crashed.Ckpt.OverheadPercent(crashed.TotalTime); pct <= 0 || pct >= 50 {
		t.Errorf("checkpoint overhead %.2f%% out of plausible range", pct)
	}
}

// TestCrashRecoveryMultiInstance: fault tolerance drives the one pipeline
// runner over a step range, so extra worker instances are no longer refused
// and change nothing it promises — crash-free, crashed-and-replayed and
// single-instance runs end on the same parameters, bit for bit.
func TestCrashRecoveryMultiInstance(t *testing.T) {
	td := testData(t, 4)
	crash := []fault.Fault{{Kind: fault.Crash, GPU: 2, At: 0.005}}
	_, want := runFT(t, td, nil, 2, 4)
	for _, sh := range []struct{ s, l int }{{2, 2}, {3, 2}, {2, 1}, {1, 3}} {
		shape := func(o *train.Options) { o.NumSamplers, o.NumLoaders = sh.s, sh.l }
		_, clean := runFT(t, td, nil, 2, 4, shape)
		crashed, replayed := runFT(t, td, crash, 2, 4, shape)
		if len(crashed.Recoveries) == 0 {
			t.Fatalf("%dS/%dL: crash never fired", sh.s, sh.l)
		}
		for i := range want {
			if clean[i] != want[i] || replayed[i] != want[i] {
				t.Fatalf("%dS/%dL: param %d is %g crash-free, %g after recovery, %g single-instance",
					sh.s, sh.l, i, clean[i], replayed[i], want[i])
			}
		}
	}
}

// TestRecoverableRunDeterministic pins bit-identical repetition: two
// same-seed FT runs with the same crash schedule agree on every epoch stat,
// every recovery record and the final parameters.
func TestRecoverableRunDeterministic(t *testing.T) {
	td := testData(t, 4)
	crash := []fault.Fault{{Kind: fault.Crash, GPU: 1, At: 0.012}}
	rep1, p1 := runFT(t, td, crash, 2, 4)
	rep2, p2 := runFT(t, td, crash, 2, 4)
	if len(rep1.Recoveries) == 0 {
		t.Fatalf("crash never fired")
	}
	if len(rep1.Recoveries) != len(rep2.Recoveries) {
		t.Fatalf("recovery counts differ: %d vs %d", len(rep1.Recoveries), len(rep2.Recoveries))
	}
	for i := range rep1.Recoveries {
		if rep1.Recoveries[i] != rep2.Recoveries[i] {
			t.Fatalf("recovery %d differs:\n  %+v\n  %+v", i, rep1.Recoveries[i], rep2.Recoveries[i])
		}
	}
	if rep1.TotalTime != rep2.TotalTime {
		t.Fatalf("total time differs: %v vs %v", rep1.TotalTime, rep2.TotalTime)
	}
	for e := range rep1.Epochs {
		a, b := rep1.Epochs[e], rep2.Epochs[e]
		if a.Loss != b.Loss || a.EpochTime != b.EpochTime || a.Correct != b.Correct {
			t.Fatalf("epoch %d differs between same-seed runs", e)
		}
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d differs between same-seed runs", i)
		}
	}
}

// TestStallDelaysButDoesNotDiverge: a transient straggler slows the epoch but
// training completes with identical learning outcomes.
func TestStallDelaysButDoesNotDiverge(t *testing.T) {
	td := testData(t, 2)
	stall := []fault.Fault{{Kind: fault.Stall, GPU: 0, At: 0.002, Duration: 0.02}}
	clean, cleanParams := runFT(t, td, nil, 1, 0)
	slow, slowParams := runFT(t, td, stall, 1, 0)
	if len(slow.Recoveries) != 0 {
		t.Fatalf("stall should not trigger recovery, got %d", len(slow.Recoveries))
	}
	if slow.TotalTime <= clean.TotalTime {
		t.Errorf("stalled run (%v) not slower than clean (%v)", slow.TotalTime, clean.TotalTime)
	}
	for i := range cleanParams {
		if cleanParams[i] != slowParams[i] {
			t.Fatalf("stall changed training outcome at param %d", i)
		}
	}
}
