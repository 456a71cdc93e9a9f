package core_test

import (
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
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
	return runFTOn(t, 1, td, faults, epochs, ckptEvery, mutate...)
}

// runFTOn is runFT on a cluster of machines (a stand-alone machine when 1).
func runFTOn(t *testing.T, machines int, td *train.Data, faults []fault.Fault, epochs, ckptEvery int, mutate ...func(*train.Options)) (*train.FTReport, []float32) {
	t.Helper()
	build := func() (train.Recoverable, error) {
		o := recoverOpts(td, faults)
		for _, m := range mutate {
			m(&o)
		}
		if machines > 1 {
			return core.NewMulti(o, machines, hw.InfiniBandEDR())
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

// sameOutcome fails unless two FT runs ended on bit-identical parameters and
// per-epoch training stats.
func sameOutcome(t *testing.T, name string, a, b *train.FTReport, ap, bp []float32) {
	t.Helper()
	if len(ap) == 0 || len(ap) != len(bp) {
		t.Fatalf("%s: param vectors missing or mismatched: %d vs %d", name, len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("%s: param %d differs: %g vs %g (resume must be bit-identical)", name, i, ap[i], bp[i])
		}
	}
	// Epoch training stats are merged segment-by-segment in the same order,
	// so the loss curves match bitwise too.
	for e := range a.Epochs {
		c, x := a.Epochs[e], b.Epochs[e]
		if c.Loss != x.Loss || c.Correct != x.Correct || c.Seen != x.Seen {
			t.Fatalf("%s: epoch %d stats diverge: %+v vs %+v", name, e, c, x)
		}
	}
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
	sameOutcome(t, "dsp", clean, crashed, cleanParams, crashedParams)
	// A crashed segment never committed, and its replay commits exactly once
	// — so both runs commit the same checkpoint sequence.
	if crashed.Ckpt.Checkpoints != clean.Ckpt.Checkpoints {
		t.Errorf("crashed run committed %d checkpoints, clean %d (want equal)",
			crashed.Ckpt.Checkpoints, clean.Ckpt.Checkpoints)
	}
	if pct := crashed.Ckpt.OverheadPercent(crashed.TotalTime); pct <= 0 || pct >= 50 {
		t.Errorf("checkpoint overhead %.2f%% out of plausible range", pct)
	}

	// The p3 layout recovers the same way — rebuild, restore, replay; no row
	// is ever re-routed — and, running identical math, lands on dsp's model.
	p3 := func(o *train.Options) { o.Strategy = "p3" }
	p3Clean, p3CleanParams := runFT(t, td, nil, 2, 4, p3)
	p3Crashed, p3CrashedParams := runFT(t, td, crash, 2, 4, p3)
	if len(p3Crashed.Recoveries) != 1 {
		t.Fatalf("p3 crash run recorded %d recoveries, want 1", len(p3Crashed.Recoveries))
	}
	sameOutcome(t, "p3", p3Clean, p3Crashed, p3CleanParams, p3CrashedParams)
	sameOutcome(t, "p3 vs dsp", clean, p3Crashed, cleanParams, p3CrashedParams)
}

// TestClusterCrashRecoveryMatchesCrashFreeRun: the cluster is the same system
// type, so the fault-tolerant driver runs it unchanged. Fault GPU ids are
// cluster-wide: on 2 machines x 2 GPUs, gpu1 is machine 0's and gpu3 machine
// 1's. A crash on either kills the whole BSP job; the rebuilt cluster restores
// every machine's replicas and replays to the crash-free result.
func TestClusterCrashRecoveryMatchesCrashFreeRun(t *testing.T) {
	td := testData(t, 2)
	const cadence = 3
	clean, cleanParams := runFTOn(t, 2, td, nil, 2, cadence)
	if len(clean.Recoveries) != 0 {
		t.Fatalf("crash-free cluster run recorded %d recoveries", len(clean.Recoveries))
	}
	for _, gpu := range []int{1, 3} {
		crash := []fault.Fault{{Kind: fault.Crash, GPU: gpu, At: clean.TotalTime / 3}}
		crashed, crashedParams := runFTOn(t, 2, td, crash, 2, cadence)
		if len(crashed.Recoveries) != 1 {
			t.Fatalf("crash@gpu%d: %d recoveries, want exactly 1", gpu, len(crashed.Recoveries))
		}
		if rec := crashed.Recoveries[0]; rec.GPU != gpu || rec.ReplaySteps < 1 || rec.ReplaySteps > cadence {
			t.Errorf("crash@gpu%d: recovery blames gpu%d and replays %d steps (cadence %d)",
				gpu, rec.GPU, rec.ReplaySteps, cadence)
		}
		if crashed.TotalTime <= clean.TotalTime {
			t.Errorf("crash@gpu%d: crashed run (%v) not slower than clean run (%v)", gpu, crashed.TotalTime, clean.TotalTime)
		}
		sameOutcome(t, fmt.Sprintf("crash@gpu%d", gpu), clean, crashed, cleanParams, crashedParams)
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
// training completes with identical learning outcomes — on one machine, and
// on a cluster whose second machine (gpu2 is machine 1 / GPU 0) stalls.
func TestStallDelaysButDoesNotDiverge(t *testing.T) {
	td := testData(t, 2)
	for _, tc := range []struct{ machines, gpu int }{{1, 0}, {2, 2}} {
		stall := []fault.Fault{{Kind: fault.Stall, GPU: tc.gpu, At: 0.002, Duration: 0.02}}
		clean, cleanParams := runFTOn(t, tc.machines, td, nil, 1, 0)
		slow, slowParams := runFTOn(t, tc.machines, td, stall, 1, 0)
		if len(slow.Recoveries) != 0 {
			t.Fatalf("%d machine(s): stall should not trigger recovery, got %d", tc.machines, len(slow.Recoveries))
		}
		if slow.TotalTime <= clean.TotalTime {
			t.Errorf("%d machine(s): stalled run (%v) not slower than clean (%v)", tc.machines, slow.TotalTime, clean.TotalTime)
		}
		for i := range cleanParams {
			if cleanParams[i] != slowParams[i] {
				t.Fatalf("%d machine(s): stall changed training outcome at param %d", tc.machines, i)
			}
		}
	}
}
