package strategy_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/train"
)

func testData(t testing.TB, nGPU int) *train.Data {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "stest", Nodes: 16000, AvgDegree: 12, FeatDim: 32,
		NumClasses: 6, Seed: 808,
	})
	return train.Prepare(d, nGPU, 1, true)
}

func realOpts(td *train.Data, strat string) train.Options {
	return train.Options{
		Data:        td,
		Model:       nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 24, Classes: td.NumClasses, Layers: 2},
		Sample:      sample.Config{Fanout: []int{8, 6}},
		BatchSize:   512,
		Pipeline:    true,
		UseCCC:      true,
		RealCompute: true,
		Seed:        77,
		Strategy:    strat,
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want strategy.Kind
		err  bool
	}{
		{"", strategy.KindDSP, false},
		{"dsp", strategy.KindDSP, false},
		{"p3", strategy.KindP3, false},
		{"P3", strategy.KindP3, false},
		{"pipeline", "", true},
	} {
		got, err := strategy.Parse(tc.in)
		if tc.err != (err != nil) {
			t.Errorf("Parse(%q): err = %v, want err %v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Errorf("Parse(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestStrategiesBitIdenticalParams pins the strategy layer's canonical-math
// contract: DSP and P3 differ only in their simulated wire and kernel cost
// model, so at the same seed both reach bitwise-equal parameters. Lossy
// codecs are off — they are part of the training math, not the strategy.
func TestStrategiesBitIdenticalParams(t *testing.T) {
	td := testData(t, 4)
	run := func(strat string) *nn.Model {
		sys, err := core.New(realOpts(td, strat))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		for e := 0; e < 2; e++ {
			if _, err := sys.RunEpoch(e); err != nil {
				t.Fatalf("%s epoch %d: %v", strat, e, err)
			}
		}
		return sys.Model()
	}
	dsp, p3 := run("dsp"), run("p3")
	if len(dsp.Params) != len(p3.Params) {
		t.Fatalf("param tensor count: dsp %d, p3 %d", len(dsp.Params), len(p3.Params))
	}
	for i := range dsp.Params {
		a, b := dsp.Params[i].W.Data, p3.Params[i].W.Data
		if len(a) != len(b) {
			t.Fatalf("param %d (%s): len %d vs %d", i, dsp.Params[i].Name, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("param %d (%s) element %d: dsp %v, p3 %v — strategies diverged",
					i, dsp.Params[i].Name, j, a[j], b[j])
			}
		}
	}
}

// TestP3EpochAndSection: a P3 run reports a consistent strategy section —
// named, slice widths tiling the feature dim, and nonzero exchange volume on
// a multi-GPU fleet — while the DSP strategy reports none (its reports stay
// byte-identical to the pre-strategy-layer schema).
func TestP3EpochAndSection(t *testing.T) {
	td := testData(t, 4)
	sys, err := core.New(realOpts(td, "p3"))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "DSP-P3" {
		t.Fatalf("Name() = %q, want DSP-P3", sys.Name())
	}
	st, err := sys.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	rep := train.BuildRunReport([]train.EpochStats{st}, nil, nil)
	sec := rep.Strategy
	if sec == nil || sec.Name != "p3" {
		t.Fatalf("strategy section = %+v, want name p3", sec)
	}
	sum := 0
	for _, w := range sec.SliceDims {
		sum += w
	}
	if sum != td.FeatDim || len(sec.SliceDims) != 4 {
		t.Fatalf("slice dims %v do not tile feature dim %d", sec.SliceDims, td.FeatDim)
	}
	if sec.PushBytes <= 0 || sec.PullBytes <= 0 || sec.PartialFlops <= 0 {
		t.Fatalf("exchange accounting not populated: %+v", sec)
	}

	dsp, err := core.New(realOpts(td, "dsp"))
	if err != nil {
		t.Fatal(err)
	}
	if l := dsp.Counters().Layout; l != nil {
		t.Fatalf("dsp strategy layout = %+v, want nil", l)
	}
}

// TestP3RejectsIncompatibleOptions: the p3 layout has no per-row cache, so
// row-policy knobs are configuration errors, not silent no-ops — from every
// constructor that builds a substrate (all three reach the one rule through
// Build). Fault injection is refused only when
// serving, whose degraded mode re-routes rows to other holders; fail-stop
// training recovery never does (TestCrashRecoveryMatchesCrashFreeRun's p3 row).
func TestP3RejectsIncompatibleOptions(t *testing.T) {
	td := testData(t, 2)
	crash := []fault.Fault{{Kind: fault.Crash, GPU: 1, At: 1e-3}}
	for name, tc := range map[string]struct {
		train func(*train.Options) // nil: training accepts it
		serve func(*serve.Config)  // nil: serving has no such knob
	}{
		"dynamic cache": {
			func(o *train.Options) { o.DynamicCache = cache.LFUDecay },
			func(c *serve.Config) { c.DynamicCache = cache.LFUDecay }},
		"cache budget": {
			func(o *train.Options) { o.FeatureCacheBudget = 1 << 20 },
			func(c *serve.Config) { c.FeatureCacheBudget = 1 << 20 }},
		"faults": {nil, func(c *serve.Config) { c.Faults = crash }},
		"unknown variant": {
			func(o *train.Options) { o.Strategy = "p4" },
			func(c *serve.Config) { c.Strategy = "p4" }},
		"replicated": {func(o *train.Options) { o.ReplicatedCache = true }, nil},
	} {
		if tc.train != nil {
			o := realOpts(td, "p3")
			tc.train(&o)
			if _, err := core.New(o); err == nil {
				t.Errorf("%s: core.New accepted an incompatible p3 config", name)
			}
			if _, err := core.NewMulti(o, 2, hw.InfiniBandEDR()); err == nil {
				t.Errorf("%s: core.NewMulti accepted an incompatible p3 config", name)
			}
		}
		if tc.serve == nil {
			continue
		}
		c := serve.Config{Data: td, Duration: 0.01, Rate: 1000, Strategy: "p3"}
		tc.serve(&c)
		if _, err := serve.NewServer(c); err == nil {
			t.Errorf("%s: serve.NewServer accepted an incompatible p3 config", name)
		}
	}
	// The compatible baseline builds everywhere, so the rejections above are
	// the knobs' doing.
	if _, err := core.NewMulti(realOpts(td, "p3"), 2, hw.InfiniBandEDR()); err != nil {
		t.Errorf("core.NewMulti rejected plain p3: %v", err)
	}
	if _, err := serve.NewServer(serve.Config{Data: td, Duration: 0.01, Rate: 1000, Strategy: "p3"}); err != nil {
		t.Errorf("serve.NewServer rejected plain p3: %v", err)
	}
}

// TestInFlightReserveMatchesQueues: the device memory Build sets aside for
// in-flight batches is the runner's own count — pipeline.Queues queues of
// QueueCap slots — beyond the plain pipeline's, which reserves nothing.
func TestInFlightReserveMatchesQueues(t *testing.T) {
	td := testData(t, 2)
	used := func(s, l int) int64 {
		o := realOpts(td, "dsp")
		o.NumSamplers, o.NumLoaders = s, l
		o.QueueCap = 3
		o.FeatureCacheBudget = int64(100 * td.RowBytes()) // the same cache at every shape
		sys, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		gpu := sys.Machine().GPUs[0]
		return gpu.Spec.MemBytes - gpu.MemFree()
	}
	plain := used(1, 1)
	slot := int64(512 * 32 * td.RowBytes()) // one batch, as Build prices it
	for _, sh := range []struct{ s, l int }{{1, 1}, {2, 2}, {3, 2}} {
		want := int64(pipeline.Queues(sh.s, sh.l)-pipeline.Queues(1, 1)) * 3 * slot
		if got := used(sh.s, sh.l) - plain; got != want {
			t.Errorf("%dS/%dL: %d bytes reserved for in-flight batches, want %d (%d queues x 3 slots)",
				sh.s, sh.l, got, want, pipeline.Queues(sh.s, sh.l))
		}
	}
}
