package baselines

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/train"
)

func testOpts(t *testing.T, nGPU int) train.Options {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "bl", Nodes: 8000, AvgDegree: 12, FeatDim: 16, NumClasses: 8, Seed: 31,
	})
	td := train.Prepare(d, nGPU, 3, true)
	return train.Options{
		Data:      td,
		Model:     nn.Config{Arch: nn.SAGE, InDim: 16, Hidden: 16, Classes: 8, Layers: 2},
		Sample:    sample.Config{Fanout: []int{8, 4}},
		BatchSize: 256,
		Seed:      5,
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		PyG: "PyG", DGLCPU: "DGL-CPU", DGLUVA: "DGL-UVA",
		Quiver: "Quiver", FastGCN: "FastGCN",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
		// Parse inverts String, whatever the case, with or without the hyphen.
		for _, name := range []string{s, strings.ToLower(s), strings.ReplaceAll(strings.ToUpper(s), "-", "")} {
			if got, err := Parse(name); err != nil || got != k {
				t.Errorf("Parse(%q) = %v, %v, want %v", name, got, err, k)
			}
		}
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind string")
	}
	for _, name := range []string{"unknown", "", "dsp", "dgl--uva-x"} {
		if k, err := Parse(name); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", name, k)
		}
	}
}

func TestCPUSystemsSampleOnHost(t *testing.T) {
	for _, kind := range []Kind{PyG, DGLCPU} {
		sys, err := New(kind, testOpts(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunSampleEpoch(0); err != nil {
			t.Fatal(err)
		}
		// CPU sampling produces no sampling wire traffic at all.
		if got := sys.Machine().Fabric.Counters.TotalWire(hw.TrafficSample); got != 0 {
			t.Errorf("%v: CPU sampling moved %d wire bytes", kind, got)
		}
	}
}

func TestUVASystemsPayAmplification(t *testing.T) {
	for _, kind := range []Kind{DGLUVA, Quiver} {
		sys, err := New(kind, testOpts(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunSampleEpoch(0); err != nil {
			t.Fatal(err)
		}
		c := sys.Machine().Fabric.Counters
		wire := c.PCIeBytes[hw.TrafficSample]
		useful := c.UsefulBytes[hw.TrafficSample]
		if wire == 0 {
			t.Fatalf("%v: no UVA sampling traffic", kind)
		}
		if float64(wire) < 2*float64(useful) {
			t.Errorf("%v: amplification only %.2fx", kind, float64(wire)/float64(useful))
		}
	}
}

func TestQuiverPaysMallocOverhead(t *testing.T) {
	opts := testOpts(t, 2)
	quiver, err := New(Quiver, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quiver.RunSampleEpoch(0); err != nil {
		t.Fatal(err)
	}
	if quiver.Machine().GPUs[0].Mallocs() == 0 {
		t.Error("Quiver performed no cudaMalloc calls")
	}
	uva, err := New(DGLUVA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uva.RunSampleEpoch(0); err != nil {
		t.Fatal(err)
	}
	if uva.Machine().GPUs[0].Mallocs() != 0 {
		t.Error("DGL-UVA should use a caching allocator (no mallocs)")
	}
}

func TestDGLUVACachesFeaturesWhenTheyFit(t *testing.T) {
	opts := testOpts(t, 2)
	// Features fit the default 16 GB GPU: all-local gathers, no feature
	// PCIe traffic.
	sys, err := New(DGLUVA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	if got := sys.Machine().Fabric.Counters.PCIeBytes[hw.TrafficFeature]; got != 0 {
		t.Errorf("cached DGL-UVA moved %d feature bytes over PCIe", got)
	}
	// With a GPU too small for the features, caching is disabled entirely
	// and every row crosses PCIe.
	small := testOpts(t, 2)
	small.GPU = hw.V100()
	small.GPU.MemBytes = small.Data.FeatureBytes() / 2
	sys2, err := New(DGLUVA, small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	if sys2.Machine().Fabric.Counters.PCIeBytes[hw.TrafficFeature] == 0 {
		t.Error("uncached DGL-UVA moved no feature bytes over PCIe")
	}
}

func TestFastGCNOnlySamples(t *testing.T) {
	opts := testOpts(t, 2)
	opts.Sample = sample.Config{Fanout: []int{100, 100}, LayerWise: true}
	opts.Model.Layers = 2
	sys, err := New(FastGCN, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunEpoch(0); err == nil {
		t.Fatal("FastGCN RunEpoch should be unsupported")
	}
	st, err := sys.RunSampleEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.EpochTime <= 0 {
		t.Fatal("no sampling time")
	}
}

func TestBaselinesBitwiseIdenticalModels(t *testing.T) {
	// All baselines run the same BSP logic: identical models after an epoch
	// of real training.
	var ref []float32
	for _, kind := range []Kind{DGLUVA, Quiver, DGLCPU} {
		o := testOpts(t, 2)
		o.RealCompute = true
		sys, err := New(kind, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunEpoch(0); err != nil {
			t.Fatal(err)
		}
		buf := make([]float32, sys.Model().ParamCount())
		sys.Model().ParamVector(buf)
		if ref == nil {
			ref = buf
			continue
		}
		for i := range buf {
			if buf[i] != ref[i] {
				t.Fatalf("%v model diverges at %d", kind, i)
			}
		}
	}
}

func TestPyGSlowerThanDGLCPU(t *testing.T) {
	// Same sampling work, but PyG's Python path is less efficient.
	opts := testOpts(t, 2)
	times := map[Kind]float64{}
	for _, kind := range []Kind{PyG, DGLCPU} {
		sys, err := New(kind, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		times[kind] = float64(st.EpochTime)
	}
	if times[PyG] <= times[DGLCPU] {
		t.Errorf("PyG (%g) not slower than DGL-CPU (%g)", times[PyG], times[DGLCPU])
	}
}
