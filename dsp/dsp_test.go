package dsp_test

import (
	"testing"

	"repro/dsp"
)

func quickData(t *testing.T) *dsp.Data {
	t.Helper()
	ds := dsp.Generate(dsp.DatasetConfig{
		Name: "api", Nodes: 4000, AvgDegree: 10, FeatDim: 8, NumClasses: 4, Seed: 2,
	})
	return dsp.Prepare(ds, 2, 1)
}

func quickOpts(data *dsp.Data) dsp.Options {
	return dsp.Options{
		Data:      data,
		Model:     dsp.ModelConfig{Arch: dsp.GraphSAGE, InDim: 8, Hidden: 8, Classes: 4, Layers: 2},
		Sample:    dsp.SampleConfig{Fanout: []int{4, 4}},
		BatchSize: 128,
		Pipeline:  true,
		UseCCC:    true,
		Seed:      3,
	}
}

func TestPublicAPITrainingRoundTrip(t *testing.T) {
	data := quickData(t)
	o := quickOpts(data)
	o.RealCompute = true
	sys, err := dsp.New(o)
	if err != nil {
		t.Fatal(err)
	}
	var accs []float64
	for e := 0; e < 3; e++ {
		st, err := sys.RunEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		if st.EpochTime <= 0 {
			t.Fatal("no time elapsed")
		}
		accs = append(accs, dsp.Evaluate(data, sys.Model(), o.Sample, 300, 5))
	}
	if accs[len(accs)-1] <= 0.3 {
		t.Fatalf("no learning through the public API: %v", accs)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	data := quickData(t)
	for _, name := range []string{"pyg", "dgl-cpu", "dgl-uva", "quiver"} {
		sys, err := dsp.NewBaseline(name, quickOpts(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sys.RunEpoch(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := dsp.NewBaseline("nope", quickOpts(data)); err == nil {
		t.Fatal("unknown baseline accepted")
	}
	// FastGCN builds but only supports sampling epochs.
	o := quickOpts(data)
	o.Sample = dsp.SampleConfig{Fanout: []int{50, 50}, LayerWise: true}
	fg, err := dsp.NewBaseline("fastgcn", o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fg.RunSampleEpoch(0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIStandardData(t *testing.T) {
	data, err := dsp.StandardData("products", 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if data.NumGPUs() != 2 {
		t.Fatalf("gpus %d", data.NumGPUs())
	}
	if data.ScaleFactor <= 1 || data.GPUMemBytes <= 0 {
		t.Fatal("registry scaling not applied")
	}
	spec := dsp.Standard("papers", 10)
	if spec.Config.Nodes != 22000 {
		t.Fatalf("papers shrink-10 nodes %d", spec.Config.Nodes)
	}
}

func TestPublicAPISampleReference(t *testing.T) {
	data := quickData(t)
	mb := dsp.SampleReference(data.G, data.Shards[0][:8], dsp.SampleConfig{Fanout: []int{3}}, 1)
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(mb.Blocks) != 1 {
		t.Fatalf("blocks %d", len(mb.Blocks))
	}
}

func TestPublicAPIHashPrepare(t *testing.T) {
	ds := dsp.Generate(dsp.DatasetConfig{
		Name: "h", Nodes: 1000, AvgDegree: 8, FeatDim: 4, NumClasses: 2, Seed: 1,
	})
	data := dsp.PrepareHash(ds, 4, 1)
	if data.NumGPUs() != 4 {
		t.Fatal("hash prepare broken")
	}
}
