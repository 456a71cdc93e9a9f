package train

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/sim"
)

func testDataset() *gen.Dataset {
	return gen.Generate(gen.Config{
		Name: "tr", Nodes: 4000, AvgDegree: 10, FeatDim: 8, NumClasses: 4, Seed: 71,
	})
}

func TestPrepareShardsCoverTrainSet(t *testing.T) {
	d := testDataset()
	td := Prepare(d, 4, 1, true)
	total := 0
	for g, shard := range td.Shards {
		total += len(shard)
		lo, hi := td.Offsets[g], td.Offsets[g+1]
		for _, v := range shard {
			if int64(v) < lo || int64(v) >= hi {
				t.Fatalf("shard %d contains foreign seed %d", g, v)
			}
		}
	}
	if total != len(d.TrainIdx) {
		t.Fatalf("shards cover %d of %d train nodes", total, len(d.TrainIdx))
	}
}

func TestPrepareLayoutConsistent(t *testing.T) {
	// Features and labels must follow the renumbering: node v's label in
	// layout order equals the original node's label.
	d := testDataset()
	td := Prepare(d, 2, 1, true)
	// Community structure is invariant: label distribution unchanged.
	counts := map[int32]int{}
	for _, l := range td.Labels {
		counts[l]++
	}
	orig := map[int32]int{}
	for _, l := range d.Labels {
		orig[l]++
	}
	for k, v := range orig {
		if counts[k] != v {
			t.Fatalf("label %d count changed: %d vs %d", k, counts[k], v)
		}
	}
	if err := td.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareHashVsMetis(t *testing.T) {
	d := testDataset()
	metis := Prepare(d, 4, 1, true)
	hash := Prepare(d, 4, 1, false)
	if metis.G.NumEdges() != hash.G.NumEdges() {
		t.Fatal("partitioning changed the graph")
	}
}

func TestScheduleCoversEveryShardOnce(t *testing.T) {
	d := testDataset()
	td := Prepare(d, 4, 1, true)
	sched := NewSchedule(td, 64)
	for rank := range td.Shards {
		seen := map[graph.NodeID]int{}
		for step := 0; step < sched.Steps; step++ {
			for _, v := range sched.Batch(td, 9, 0, step, rank) {
				seen[v]++
			}
		}
		if len(seen) != len(td.Shards[rank]) {
			t.Fatalf("rank %d: epoch covered %d of %d seeds", rank, len(seen), len(td.Shards[rank]))
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("rank %d: seed %d appeared %d times", rank, v, c)
			}
		}
	}
}

func TestScheduleEpochsShuffleDifferently(t *testing.T) {
	d := testDataset()
	td := Prepare(d, 2, 1, true)
	sched := NewSchedule(td, 32)
	a := sched.Batch(td, 9, 0, 0, 0)
	b := sched.Batch(td, 9, 1, 0, 0)
	same := 0
	for i := range a {
		if i < len(b) && a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("epochs not reshuffled")
	}
	// Same epoch is reproducible.
	c := sched.Batch(td, 9, 0, 0, 0)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("batch not reproducible")
		}
	}
}

func TestBatchSeedDistinct(t *testing.T) {
	if err := quick.Check(func(e1, s1, r1, e2, s2, r2 uint8) bool {
		if e1 == e2 && s1 == s2 && r1 == r2 {
			return true
		}
		return BatchSeed(1, int(e1), int(s1), int(r1)) != BatchSeed(1, int(e2), int(s2), int(r2))
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := testDataset()
	td := Prepare(d, 2, 1, true)
	o := Options{Data: td}.Defaults()
	if o.Model.Hidden != 256 || o.Model.Layers != 3 {
		t.Errorf("default model %+v", o.Model)
	}
	if len(o.Sample.Fanout) != 3 || o.Sample.Fanout[0] != 15 {
		t.Errorf("default fanout %v", o.Sample.Fanout)
	}
	if o.BatchSize != 1024 || o.QueueCap != 2 {
		t.Errorf("defaults: batch %d queue %d", o.BatchSize, o.QueueCap)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidateRejectsMismatch(t *testing.T) {
	d := testDataset()
	td := Prepare(d, 2, 1, true)
	o := Options{
		Data:   td,
		Model:  nn.Config{Arch: nn.SAGE, InDim: 8, Hidden: 8, Classes: 4, Layers: 3},
		Sample: sample.Config{Fanout: []int{5, 5}}, // 2 != 3 layers
	}
	if o.Validate() == nil {
		t.Fatal("fanout/layers mismatch accepted")
	}
	if (Options{}).Validate() == nil {
		t.Fatal("missing data accepted")
	}
	// A fan-out below one samples nothing: node-wise fan-out and layer-wise
	// budget alike are refused by position.
	for _, layerWise := range []bool{false, true} {
		o.Sample = sample.Config{Fanout: []int{5, -1, 5}, LayerWise: layerWise}
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "Fanout[1] = -1") {
			t.Fatalf("negative fan-out (layer-wise %v): %v", layerWise, err)
		}
	}
	// Defaults resolves 0; a negative capacity is nobody's to clamp.
	neg := Options{Data: td, QueueCap: -1}.Defaults()
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "QueueCap") {
		t.Fatalf("negative QueueCap: %v", err)
	}
}

// TestOptionsValidateRejectsBadModelAndBatch: a model or batch flag no run
// can use is an error naming its field, not a panic in nn.NewModel (negative
// hidden width), a zero-width model, or an epoch of no steps reported as a
// result (negative batch size).
func TestOptionsValidateRejectsBadModelAndBatch(t *testing.T) {
	td := Prepare(testDataset(), 2, 1, true)
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
		reject string // "" = accepted
	}{
		{"negative layers", func(o *Options) { o.Model.Layers = -1 }, "Model.Layers = -1"},
		{"negative hidden", func(o *Options) { o.Model.Hidden = -1 }, "Model.Hidden = -1"},
		{"zero hidden", func(o *Options) { o.Model.Hidden = 0 }, "Model.Hidden = 0"},
		{"negative batch", func(o *Options) { o.BatchSize = -5 }, "BatchSize -5"},
		// One layer maps InDim straight to Classes: no hidden width to size.
		{"one layer, no hidden", func(o *Options) {
			o.Model.Layers, o.Model.Hidden, o.Sample.Fanout = 1, 0, []int{5}
		}, ""},
	} {
		o := Options{Data: td, Model: nn.Config{Arch: nn.SAGE, Hidden: 8, Layers: 3}}
		tc.mutate(&o)
		err := o.Defaults().Validate()
		if tc.reject == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.reject) {
			t.Errorf("%s: Validate answered %v, want an error naming %q", tc.name, err, tc.reject)
		}
	}
}

func TestEffectiveStageOverhead(t *testing.T) {
	if got := (Options{}).EffectiveStageOverhead(); got != 2e-3 {
		t.Errorf("default overhead %v", got)
	}
	if got := (Options{LatencyScale: 10}).EffectiveStageOverhead(); got != 2e-4 {
		t.Errorf("scaled overhead %v", got)
	}
}

func TestGatherFeaturesAndLabels(t *testing.T) {
	d := testDataset()
	td := Prepare(d, 2, 1, true)
	seeds := td.Shards[0][:16]
	mb := sample.Reference(td.G, seeds, sample.Config{Fanout: []int{4, 4}}, 3)
	feats := GatherFeatures(td, mb)
	if len(feats) != len(mb.InputNodes())*td.FeatDim {
		t.Fatalf("gather size %d", len(feats))
	}
	for i, v := range mb.InputNodes()[:10] {
		for j := 0; j < td.FeatDim; j++ {
			if feats[i*td.FeatDim+j] != td.Feats[int(v)*td.FeatDim+j] {
				t.Fatalf("feature mismatch node %d", v)
			}
		}
	}
	labels := SeedLabels(td, mb)
	for i, s := range mb.Seeds {
		if labels[i] != td.Labels[s] {
			t.Fatalf("label mismatch seed %d", s)
		}
	}
}

func TestEvaluateUntrainedNearChance(t *testing.T) {
	d := testDataset()
	td := Prepare(d, 2, 1, true)
	m := nn.NewModel(nn.Config{Arch: nn.SAGE, InDim: 8, Hidden: 8, Classes: 4, Layers: 2}, 1)
	acc := Evaluate(td, m, sample.Config{Fanout: []int{4, 4}}, 400, 7)
	if acc < 0.02 || acc > 0.8 {
		t.Fatalf("untrained accuracy %v implausible", acc)
	}
}

func TestEpochStatsAcc(t *testing.T) {
	if (EpochStats{}).Acc() != 0 {
		t.Error("empty stats accuracy not 0")
	}
	st := EpochStats{Correct: 3, Seen: 4}
	if st.Acc() != 0.75 {
		t.Errorf("acc %v", st.Acc())
	}
}

func TestRunEpochPopulatesStageDistributions(t *testing.T) {
	m := hw.NewMachine(2, hw.V100(), hw.XeonE5())
	const steps = 4
	stats, err := RunEpoch(Window{Machines: []*hw.Machine{m}}, 0, 0, -1, true, 2, 0, func(_, rank int, st *EpochStats) pipeline.Stages {
		return pipeline.Stages{
			NumBatches: steps,
			Samplers:   []pipeline.SampleFunc{func(p *sim.Proc, step int) interface{} { p.Sleep(0.001); return step }},
			Loaders:    []pipeline.LoadFunc{func(p *sim.Proc, step int, v interface{}) interface{} { p.Sleep(0.002); return v }},
			Train:      func(p *sim.Proc, step int, v interface{}) { p.Sleep(0.003) },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*metrics.Histogram{
		"sample": stats.SampleDist, "load": stats.LoadDist, "train": stats.TrainDist,
	} {
		if h.Count() != 2*steps {
			t.Fatalf("%s dist has %d observations, want %d", name, h.Count(), 2*steps)
		}
	}
	// The distributions carry the per-step stage durations: the sums must
	// reconcile with the running totals.
	if got, want := stats.SampleDist.Sum(), float64(stats.SampleStage); math.Abs(got-want) > 1e-12 {
		t.Fatalf("sample dist sum %g != stage total %g", got, want)
	}
	if p50 := stats.TrainDist.P50(); math.Abs(p50-0.003) > 0.0002 {
		t.Fatalf("train p50 %g, want ~0.003", p50)
	}
}
