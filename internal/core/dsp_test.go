package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/train"
)

func testData(t testing.TB, nGPU int) *train.Data {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "itest", Nodes: 20000, AvgDegree: 15, FeatDim: 32,
		NumClasses: 8, Seed: 404,
	})
	td := train.Prepare(d, nGPU, 1, true)
	return td
}

func smallOpts(td *train.Data) train.Options {
	return train.Options{
		Data:      td,
		Model:     nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 32, Classes: td.NumClasses, Layers: 2},
		Sample:    sample.Config{Fanout: []int{10, 8}},
		BatchSize: 512,
		Pipeline:  true,
		UseCCC:    true,
		Seed:      77,
	}
}

func TestDSPRunsAcrossGPUCounts(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		td := testData(t, n)
		sys, err := core.New(smallOpts(td))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		st, err := sys.RunEpoch(0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if st.EpochTime <= 0 {
			t.Fatalf("n=%d: epoch time %v", n, st.EpochTime)
		}
		if len(st.Utilization) != n {
			t.Fatalf("n=%d: %d utilizations", n, len(st.Utilization))
		}
		if n > 1 && st.SampleWire == 0 {
			t.Errorf("n=%d: no sampling communication recorded", n)
		}
	}
}

func TestDSPPipelineFasterThanSeq(t *testing.T) {
	// Figure 12's direction: the pipeline beats sequential execution, and
	// produces higher GPU utilization (Figure 6).
	td := testData(t, 4)
	run := func(pipelined bool) (epoch train.EpochStats) {
		o := smallOpts(td)
		o.Pipeline = pipelined
		sys, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq := run(false)
	pipe := run(true)
	if pipe.EpochTime >= seq.EpochTime {
		t.Fatalf("pipeline (%v) not faster than DSP-Seq (%v)", pipe.EpochTime, seq.EpochTime)
	}
	var pipeU, seqU float64
	for i := range pipe.Utilization {
		pipeU += pipe.Utilization[i]
		seqU += seq.Utilization[i]
	}
	if pipeU <= seqU {
		t.Errorf("pipeline utilization %v not above sequential %v", pipeU/4, seqU/4)
	}
}

func TestDSPBSPReplicasIdentical(t *testing.T) {
	// After real training, every GPU's model replica must be bitwise equal
	// (the BSP guarantee), and pipeline vs sequential must produce the
	// exact same model.
	td := testData(t, 4)
	runModel := func(pipelined bool) []float32 {
		o := smallOpts(td)
		o.Pipeline = pipelined
		o.RealCompute = true
		sys, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunEpoch(0); err != nil {
			t.Fatal(err)
		}
		// All replicas identical?
		m0 := sys.Model()
		buf0 := make([]float32, m0.ParamCount())
		m0.ParamVector(buf0)
		return buf0
	}
	a := runModel(true)
	b := runModel(false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pipeline and sequential models diverge at %d", i)
		}
	}
}

func TestDSPAllReplicasEqualAfterEpoch(t *testing.T) {
	td := testData(t, 2)
	o := smallOpts(td)
	o.RealCompute = true
	sys, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	// Access both replicas through the trainer by re-running Model()
	// per-rank: Model() returns rank 0; compare via exported trainer.
	// Instead verify accuracy is sane and loss finite.
	st, err := sys.RunEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seen == 0 {
		t.Fatal("no seeds trained")
	}
	if st.Acc() <= 0 {
		t.Fatal("zero training accuracy after an epoch")
	}
}

func TestDSPLearnsRealTask(t *testing.T) {
	// Accuracy on validation nodes should clearly beat chance after a few
	// epochs of real multi-GPU training.
	td := testData(t, 2)
	o := smallOpts(td)
	o.RealCompute = true
	sys, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if _, err := sys.RunEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	acc := train.Evaluate(td, sys.Model(), o.Sample, 500, 9)
	chance := 1.0 / float64(td.NumClasses)
	if acc < 3*chance {
		t.Fatalf("validation accuracy %.3f after 3 epochs (chance %.3f)", acc, chance)
	}
}

func TestBaselinesRunAndMatchDSPSamples(t *testing.T) {
	td := testData(t, 2)
	o := smallOpts(td)
	for _, kind := range []baselines.Kind{baselines.PyG, baselines.DGLCPU, baselines.DGLUVA, baselines.Quiver} {
		sys, err := baselines.New(kind, o)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		st, err := sys.RunEpoch(0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if st.EpochTime <= 0 {
			t.Fatalf("%v: epoch time %v", kind, st.EpochTime)
		}
	}
}

func TestDSPFasterThanAllBaselines(t *testing.T) {
	// Table 4's headline: DSP wins on every dataset/GPU count. Checked here
	// on one mid-size configuration.
	td := testData(t, 4)
	o := smallOpts(td)
	dsp, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	dspStat, err := dsp.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []baselines.Kind{baselines.PyG, baselines.DGLCPU, baselines.DGLUVA, baselines.Quiver} {
		sys, err := baselines.New(kind, o)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		if dspStat.EpochTime >= st.EpochTime {
			t.Errorf("DSP (%v) not faster than %v (%v)", dspStat.EpochTime, kind, st.EpochTime)
		}
	}
}

func TestSamplingEpochOrdering(t *testing.T) {
	// Table 6's direction: CSP sampling beats UVA sampling beats CPU
	// sampling.
	td := testData(t, 4)
	o := smallOpts(td)
	dsp, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	dspStat, err := dsp.RunSampleEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	times := map[baselines.Kind]float64{}
	for _, kind := range []baselines.Kind{baselines.DGLCPU, baselines.DGLUVA} {
		sys, err := baselines.New(kind, o)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunSampleEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		times[kind] = float64(st.EpochTime)
	}
	if float64(dspStat.EpochTime) >= times[baselines.DGLUVA] {
		t.Errorf("CSP sampling (%v) not faster than UVA (%v)", dspStat.EpochTime, times[baselines.DGLUVA])
	}
	if times[baselines.DGLUVA] >= times[baselines.DGLCPU] {
		t.Errorf("UVA sampling (%v) not faster than CPU (%v)", times[baselines.DGLUVA], times[baselines.DGLCPU])
	}
}

func TestDSPSamplingCommBelowUVA(t *testing.T) {
	// Figure 1's direction: CSP moves far fewer wire bytes than UVA
	// sampling for the same batches.
	td := testData(t, 4)
	o := smallOpts(td)
	dsp, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dsp.RunSampleEpoch(0); err != nil {
		t.Fatal(err)
	}
	uva, err := baselines.New(baselines.DGLUVA, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uva.RunSampleEpoch(0); err != nil {
		t.Fatal(err)
	}
	dspWire := dsp.Machine().Fabric.Counters.TotalWire(hw.TrafficSample)
	uvaSample := uva.Machine().Fabric.Counters.TotalWire(hw.TrafficSample)
	if dspWire >= uvaSample {
		t.Fatalf("CSP wire bytes %d not below UVA %d", dspWire, uvaSample)
	}
}

func TestDSPFeatureCacheBudgetRespected(t *testing.T) {
	td := testData(t, 2)
	o := smallOpts(td)
	o.FeatureCacheBudget = int64(50 * td.RowBytes())
	sys, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		if got := sys.Store().CacheBytes(g); got > o.FeatureCacheBudget {
			t.Fatalf("GPU %d cache %d exceeds budget %d", g, got, o.FeatureCacheBudget)
		}
	}
	if _, err := sys.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	// Tiny cache must force UVA feature traffic.
	st, err := sys.RunEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.FeatureWire == 0 {
		t.Error("no feature wire traffic despite tiny cache")
	}
}

func TestDSPMultiEpochStableAndDeterministic(t *testing.T) {
	td := testData(t, 2)
	run := func() []float64 {
		sys, err := core.New(smallOpts(td))
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		for e := 0; e < 3; e++ {
			st, err := sys.RunEpoch(e)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, float64(st.EpochTime))
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d time not reproducible: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBaselineSamplesIdenticalToDSPBatches(t *testing.T) {
	// The Figure 9a premise: same schedule + same seeds = same samples.
	td := testData(t, 2)
	o := smallOpts(td)
	uva, err := baselines.New(baselines.DGLUVA, o)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct a DSP batch with the reference sampler (csp tests prove
	// CSP == Reference) and check the baseline uses the same one.
	sched := train.NewSchedule(td, o.BatchSize)
	seeds := sched.Batch(td, o.Seed, 0, 0, 1)
	mb := sample.Reference(td.G, seeds, o.Sample, train.BatchSeed(o.Seed, 0, 0, 1))
	if !uva.SamplesMatchDSP(0, 0, 1, mb) {
		t.Fatal("baseline batch differs from DSP batch")
	}
}

func TestDSPWithoutCCCStillRunsSequential(t *testing.T) {
	// Without the pipeline there is only one worker per GPU, so even
	// without CCC no deadlock is possible.
	td := testData(t, 2)
	o := smallOpts(td)
	o.Pipeline = false
	o.UseCCC = false
	sys, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
}

func TestDSPReplicatedCacheAblation(t *testing.T) {
	// Partitioned cache yields more aggregate rows and fewer UVA bytes
	// than a replicated cache under the same budget.
	td := testData(t, 4)
	run := func(replicated bool) int64 {
		o := smallOpts(td)
		o.ReplicatedCache = replicated
		o.FeatureCacheBudget = int64(400 * td.RowBytes())
		sys, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		_ = st
		return sys.Machine().Fabric.Counters.PCIeBytes[hw.TrafficFeature]
	}
	part := run(false)
	repl := run(true)
	if part >= repl {
		t.Fatalf("partitioned cache PCIe feature bytes %d not below replicated %d", part, repl)
	}
}

func TestRandomWalkEpoch(t *testing.T) {
	td := testData(t, 2)
	sys, err := core.New(smallOpts(td))
	if err != nil {
		t.Fatal(err)
	}
	paths, dur, err := sys.RandomWalkEpoch(5)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("walk consumed no virtual time")
	}
	total := 0
	for _, ps := range paths {
		total += len(ps)
	}
	want := len(td.Shards[0]) + len(td.Shards[1])
	if total != want {
		t.Fatalf("walked %d paths, want %d", total, want)
	}
}

func TestDSPMultiWorkerBSPIdentical(t *testing.T) {
	// Multiple sampler/loader instances must not change training results:
	// the trainer consumes steps in order, so the model is bitwise equal to
	// the single-worker run — under either strategy (whose parameters agree
	// with each other), and with the pipeline off, where each step simply
	// runs on the instances that own it.
	td := testData(t, 2)
	run := func(strat string, pipelined bool, samplers, loaders int) ([]float32, train.EpochStats) {
		o := smallOpts(td)
		o.RealCompute = true
		o.Strategy, o.Pipeline = strat, pipelined
		o.NumSamplers = samplers
		o.NumLoaders = loaders
		sys, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float32, sys.Model().ParamCount())
		sys.Model().ParamVector(buf)
		return buf, st
	}
	single, _ := run("dsp", true, 1, 1)
	for _, tc := range []struct {
		strat     string
		pipelined bool
	}{{"dsp", true}, {"p3", true}, {"dsp", false}} {
		multi, st := run(tc.strat, tc.pipelined, 3, 2)
		for i := range single {
			if single[i] != multi[i] {
				t.Fatalf("%s pipelined=%v: multi-worker model diverges at %d", tc.strat, tc.pipelined, i)
			}
		}
		if tc.strat != "p3" {
			continue
		}
		// The exchange moves the same bytes whichever loader carries it.
		if _, one := run("p3", true, 1, 1); st.PushWire == 0 || st.PushWire != one.PushWire {
			t.Errorf("p3 push wire %d with 3S/2L, %d with 1S/1L", st.PushWire, one.PushWire)
		}
	}
}

func TestDSPUnfusedSamplingSlower(t *testing.T) {
	// The async (one kernel per task) alternative of §4.1 must lose to the
	// fused design.
	td := testData(t, 4)
	run := func(unfused bool) float64 {
		o := smallOpts(td)
		o.UnfusedSampling = unfused
		sys, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunSampleEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.EpochTime)
	}
	fused := run(false)
	unfused := run(true)
	if unfused <= fused {
		t.Fatalf("unfused sampling (%g) not slower than fused (%g)", unfused, fused)
	}
}

func TestDSPTrainsGAT(t *testing.T) {
	// The attention model trains end to end through the full system.
	td := testData(t, 2)
	o := smallOpts(td)
	o.Model = nn.Config{Arch: nn.GAT, InDim: td.FeatDim, Hidden: 16, Classes: td.NumClasses, Layers: 2}
	o.RealCompute = true
	o.LR = 0.01
	sys, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		if _, err := sys.RunEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	acc := train.Evaluate(td, sys.Model(), o.Sample, 400, 4)
	if chance := 1.0 / float64(td.NumClasses); acc < 2*chance {
		t.Fatalf("GAT through DSP stuck at %.3f", acc)
	}
}

// TestRealEpochPinned holds one real-compute epoch of each strategy to the
// virtual epoch time, loss, accuracy count, priced train-stage time and
// parameter bits it had with nn's scalar triple-loop kernels, plus the wire
// and codec byte totals. The loss, accuracy, parameter and byte columns of
// the first two rows were recorded at commit 6c6d167 before any kernel was
// touched, those of the codec rows at 410a76c while the feature reply, the p3
// push and the p3 pull still round-tripped zero vectors through the codec.
// The epoch and stage columns were re-recorded when both compute modes came
// to charge one shape-derived price. They are amd64 values (arm64 fuses
// a*b+c in nn's Go loops), so the test only runs there.
func TestRealEpochPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned constants are amd64 values (arm64 fuses a*b+c)")
	}
	td := testData(t, 2)
	// wire pins the epoch's FeatureWire, GradWire and PushWire, then the
	// codec's cumulative {Raw, Wire} on the feature and gradient classes.
	type wire [7]int64
	for _, tc := range []struct {
		strategy           string
		feat, grad         compress.Codec
		epoch, loss, stage uint64 // math.Float64bits of EpochTime, Loss, TrainDist.Sum()
		correct, seen      int
		params             uint64 // FNV-1a over the parameter bits
		wire               wire
	}{
		{"dsp", nil, nil, 0x3f8fbfa3a6651c7d, 0x403c4824ff5b7018, 0x3f94bcff5b5e2d40, 558, 4000, 0x8cb1b12cd2e9079e,
			wire{2858724, 104000, 0, 0, 0, 0, 0}},
		{"p3", nil, nil, 0x3f8ff0b4ae3cfc9b, 0x403c4824ff5b7018, 0x3f95216b61fe6b14, 558, 4000, 0x8cb1b12cd2e9079e,
			wire{7524132, 7318208, 7296128, 0, 0, 0, 0}},
		// Codec rows, recorded before the modelled all-to-alls went
		// count-only: the feature codec prices the reply and the push, the
		// gradient codec the pull and the allreduce.
		{"dsp", compress.NewInt8(3), nil, 0x3f8fba55b5cdb984, 0x403c4824ff5b7018, 0x3f94bcff5b5e2d42, 558, 4000, 0x8cb1b12cd2e9079e,
			wire{801332, 104000, 0, 2772096, 714704, 0, 0}},
		{"p3", compress.NewInt8(3), nil, 0x3f8fe2956453572e, 0x403c4824ff5b7018, 0x3f9520bdbcbd1c20, 558, 4000, 0x8cb1b12cd2e9079e,
			wire{2109076, 7318208, 1881072, 7296128, 1881072, 0, 0}},
		{"p3", nil, compress.NewInt8(3), 0x3f8fe283de516f7e, 0x403c48d29df7e212, 0x3f94e877a4d3b9f5, 558, 4000, 0xceaa68fdd771f07e,
			wire{7524132, 1886832, 7296128, 0, 0, 7318208, 1886832}},
	} {
		o := smallOpts(td)
		o.RealCompute, o.Strategy = true, tc.strategy
		o.FeatCodec, o.GradCodec = tc.feat, tc.grad
		sys, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float32, sys.Model().ParamCount())
		sys.Model().ParamVector(v)
		h := fnv.New64a()
		var b [4]byte
		for _, x := range v {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
		epoch, loss, stage := math.Float64bits(float64(st.EpochTime)), math.Float64bits(st.Loss), math.Float64bits(st.TrainDist.Sum())
		codec := sys.Compression()
		cf, cg := codec[hw.TrafficFeature], codec[hw.TrafficGradient]
		w := wire{st.FeatureWire, st.GradWire, st.PushWire, cf.Raw, cf.Wire, cg.Raw, cg.Wire}
		if epoch != tc.epoch || loss != tc.loss || stage != tc.stage ||
			st.Correct != tc.correct || st.Seen != tc.seen || h.Sum64() != tc.params || w != tc.wire {
			t.Errorf("%s feat=%s grad=%s: {epoch: %#x, loss: %#x, stage: %#x, correct: %d, seen: %d, params: %#x, wire: %v}, pinned %+v",
				tc.strategy, compress.Name(tc.feat), compress.Name(tc.grad),
				epoch, loss, stage, st.Correct, st.Seen, h.Sum64(), w, tc)
		}
	}
}

// TestCostOnlyMatchesRealCompute: the two compute modes are one cost model.
// A step and an inference are priced from the batch's shapes, not from the
// math, so an epoch that runs the math and one that does not spend the same
// virtual time, bit for bit — epoch, every stage sum and every counter —
// for both strategies, every architecture, with and without a gradient
// codec (int8's wire size depends on the element count alone).
func TestCostOnlyMatchesRealCompute(t *testing.T) {
	td := testData(t, 2)
	for _, strategy := range []string{"dsp", "p3"} {
		for _, arch := range []nn.Arch{nn.SAGE, nn.GCN, nn.GAT} {
			for _, grad := range []compress.Codec{nil, compress.NewInt8(3)} {
				epoch := func(real bool) train.EpochStats {
					o := smallOpts(td)
					o.Model.Arch, o.Strategy, o.GradCodec, o.RealCompute = arch, strategy, grad, real
					sys, err := core.New(o)
					if err != nil {
						t.Fatal(err)
					}
					st, err := sys.RunEpoch(0)
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				cost, real := epoch(false), epoch(true)
				name := fmt.Sprintf("%s/%v/grad=%s", strategy, arch, compress.Name(grad))
				if cost.EpochTime != real.EpochTime {
					t.Errorf("%s: epoch %v cost-only, %v real", name, cost.EpochTime, real.EpochTime)
				}
				for _, s := range []struct {
					stage      string
					cost, real *metrics.Histogram
				}{{"sample", cost.SampleDist, real.SampleDist}, {"load", cost.LoadDist, real.LoadDist}, {"train", cost.TrainDist, real.TrainDist}} {
					if c, r := s.cost.Sum(), s.real.Sum(); c != r {
						t.Errorf("%s: %s stage sum %v cost-only, %v real", name, s.stage, c, r)
					}
				}
				if !reflect.DeepEqual(cost.Counters, real.Counters) {
					t.Errorf("%s: counters differ\ncost-only %+v\nreal      %+v", name, cost.Counters, real.Counters)
				}
			}
		}
	}
}
