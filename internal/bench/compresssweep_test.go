package bench

import (
	"math"
	"testing"

	"repro/internal/compress"
)

// TestCompressSweepFrontier asserts the ISSUE's acceptance criteria on the
// accuracy-vs-bytes frontier: at equal epochs, int8 cuts gradient wire by
// at least 3.5x while staying within the documented 5% loss-delta bound,
// and the identity baseline is exactly neutral.
func TestCompressSweepFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("real-compute sweep")
	}
	cfg := RunConfig{Shrink: 8, Warmup: 1, Measure: 1}
	tab, err := CompressSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// fp32 is the baseline row: zero deltas, reduction factor exactly 1.
	if dl := tab.Get("fp32", "dloss%"); dl != 0 {
		t.Errorf("fp32 dloss%% = %g, want 0", dl)
	}
	if gx := tab.Get("fp32", "gradx"); gx != 1 {
		t.Errorf("fp32 gradx = %g, want 1", gx)
	}

	// int8: >= 3.5x gradient wire cut at equal epochs, loss delta within
	// the documented 5% bound (DESIGN.md "Communication compression").
	if gx := tab.Get("int8", "gradx"); gx < 3.5 {
		t.Errorf("int8 gradient wire reduction %.2fx, want >= 3.5x", gx)
	}
	if dl := math.Abs(tab.Get("int8", "dloss%")); dl > 5 {
		t.Errorf("int8 loss delta %.2f%% exceeds the documented 5%% bound", dl)
	}

	// fp16 halves wire bytes with an even tighter loss delta.
	if gx := tab.Get("fp16", "gradx"); math.Abs(gx-2) > 0.05 {
		t.Errorf("fp16 gradient wire reduction %.2fx, want ~2x", gx)
	}
	if dl := math.Abs(tab.Get("fp16", "dloss%")); dl > 5 {
		t.Errorf("fp16 loss delta %.2f%% exceeds 5%%", dl)
	}

	// topk(0.1) is the far end of the frontier: ~5x cut, and the feature
	// wire shrinks too (codec applied to the reply all-to-all).
	if gx := tab.Get("topk0.1", "gradx"); gx < 4.5 {
		t.Errorf("topk gradient wire reduction %.2fx, want >= 4.5x", gx)
	}
	for _, row := range []string{"fp16", "int8", "topk0.1"} {
		if fw, base := tab.Get(row, "feat MB"), tab.Get("fp32", "feat MB"); fw >= base {
			t.Errorf("%s feature wire %.3f MB not below fp32's %.3f MB", row, fw, base)
		}
	}

	// All rows trained: losses are finite and positive.
	for _, row := range tab.Rows {
		if l := tab.Get(row, "loss"); l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			t.Errorf("%s loss = %g", row, l)
		}
	}
}

// TestCompressRunDeterministic asserts same-seed bit-identical runs: the
// frontier point is a pure function of (dataset, codec), including the
// stochastic int8 rounding.
func TestCompressRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("real-compute sweep")
	}
	td := realStandIn("compress", 16000, 1500, 4, 8)
	codec := compress.NewInt8(2023)
	a, err := compressRun(td, codec, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := compressRun(td, codec, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
		t.Errorf("loss not bit-identical: %x vs %x", math.Float64bits(a.Loss), math.Float64bits(b.Loss))
	}
	if a.ValAcc != b.ValAcc {
		t.Errorf("val acc differs: %v vs %v", a.ValAcc, b.ValAcc)
	}
	if a.GradWire != b.GradWire || a.FeatWire != b.FeatWire {
		t.Errorf("wire bytes differ: grad %d/%d feat %d/%d", a.GradWire, b.GradWire, a.FeatWire, b.FeatWire)
	}
	if len(a.Params) != len(b.Params) {
		t.Fatalf("param counts differ: %d vs %d", len(a.Params), len(b.Params))
	}
	for i := range a.Params {
		if math.Float32bits(a.Params[i]) != math.Float32bits(b.Params[i]) {
			t.Fatalf("model params diverge at %d: %x vs %x", i,
				math.Float32bits(a.Params[i]), math.Float32bits(b.Params[i]))
		}
	}
}
