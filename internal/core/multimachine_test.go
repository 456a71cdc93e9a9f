package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/telemetry"
	"repro/internal/train"
)

func TestMultiDSPRuns(t *testing.T) {
	td := testData(t, 2)
	o := smallOpts(td)
	sys, err := core.NewMulti(o, 2, hw.InfiniBandEDR())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.EpochTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if len(st.Utilization) != 4 {
		t.Fatalf("expected 4 GPU utilizations (2x2), got %d", len(st.Utilization))
	}
	if st.InterWire == 0 {
		t.Error("no inter-machine traffic despite partitioned cold features")
	}
}

func TestMultiDSPSingleMachineMatchesDSP(t *testing.T) {
	// One machine degenerates to the single-machine system bitwise — both
	// run the strategy layer's round bodies over the same substrate, through
	// the same epoch entry point — so over two epochs, cost-only and real,
	// under either strategy, with a rebalancing cache or extra worker
	// instances, the epoch time and the whole counter set (every wire class,
	// the cache tiers, the rebalances) agree to the last bit, and so does the
	// model.
	td := testData(t, 2)
	for _, tc := range []struct {
		name   string
		strat  string
		real   bool
		mutate func(*train.Options)
	}{
		{"dsp", "dsp", false, nil}, {"dsp real", "dsp", true, nil},
		{"p3", "p3", false, nil}, {"p3 real", "p3", true, nil},
		{"dynamic cache", "dsp", false, func(o *train.Options) {
			o.DynamicCache, o.FeatureCacheBudget = cache.LFUDecay, int64(100*td.RowBytes())
		}},
		{"2S/2L", "dsp", true, func(o *train.Options) { o.NumSamplers, o.NumLoaders = 2, 2 }},
		{"p3 3S/2L", "p3", false, func(o *train.Options) { o.NumSamplers, o.NumLoaders = 3, 2 }},
	} {
		o := smallOpts(td)
		o.Strategy, o.RealCompute = tc.strat, tc.real
		if tc.mutate != nil {
			tc.mutate(&o)
		}
		single, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := core.NewMulti(o, 1, hw.InfiniBandEDR())
		if err != nil {
			t.Fatal(err)
		}
		rebalances := 0
		for e := 0; e < 2; e++ {
			a, err := single.RunEpoch(e)
			if err != nil {
				t.Fatal(err)
			}
			b, err := multi.RunEpoch(e)
			if err != nil {
				t.Fatal(err)
			}
			if a.EpochTime != b.EpochTime || !reflect.DeepEqual(a.Counters, b.Counters) {
				t.Errorf("%s epoch %d: DSP time %v counters %+v, 1-machine MultiDSP time %v counters %+v",
					tc.name, e, a.EpochTime, a.Counters, b.EpochTime, b.Counters)
			}
			if b.InterWire != 0 {
				t.Errorf("%s epoch %d: one machine sent %d NIC bytes", tc.name, e, b.InterWire)
			}
			if tc.strat == "dsp" && b.CacheLocal+b.CachePeer+b.CacheHost == 0 {
				t.Errorf("%s epoch %d: 1-machine MultiDSP reports no cache tiers", tc.name, e)
			}
			rebalances += b.Rebalances
		}
		if (rebalances > 0) != (o.DynamicCache != cache.Static) {
			t.Errorf("%s: %d rebalances under cache policy %v", tc.name, rebalances, o.DynamicCache)
		}
		if !tc.real {
			continue
		}
		a := make([]float32, single.Model().ParamCount())
		b := make([]float32, multi.Model().ParamCount())
		single.Model().ParamVector(a)
		multi.Model().ParamVector(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: 1-machine MultiDSP diverges from DSP at param %d", tc.name, i)
			}
		}
	}
}

// TestNewMultiHonoursOrRejectsOptions: NewMulti used to accept every option
// it did not implement and silently run plain DSP at an identical epoch time.
// Through the shared constructor each option either takes effect (the epoch
// measurably differs from the plain run) or is refused by name.
func TestNewMultiHonoursOrRejectsOptions(t *testing.T) {
	td := testData(t, 2)
	epoch := func(o train.Options) (train.EpochStats, error) {
		sys, err := core.NewMulti(o, 2, hw.InfiniBandEDR())
		if err != nil {
			return train.EpochStats{}, err
		}
		sys.ArmFaults(0)
		return sys.RunEpoch(0)
	}
	plain, err := epoch(smallOpts(td))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*train.Options)
		reject string // substring the error must name; "" = the option must work
	}{
		{"Strategy nonsense", func(o *train.Options) { o.Strategy = "nonsense" }, "nonsense"},
		{"Strategy p3", func(o *train.Options) { o.Strategy = "p3" }, ""},
		{"OOC", func(o *train.Options) { o.OOC = true }, "OOC"},
		{"DynamicCache", func(o *train.Options) {
			// A budget that leaves cold rows to promote.
			o.DynamicCache, o.FeatureCacheBudget = cache.LFUDecay, int64(100*td.RowBytes())
		}, ""},
		{"ReplicatedCache", func(o *train.Options) { o.ReplicatedCache = true }, ""},
		// Fault GPU ids are cluster-wide: gpu3 is machine 1's GPU 1.
		{"Faults", func(o *train.Options) {
			o.Faults = []fault.Fault{{Kind: fault.Stall, GPU: 3, At: 1e-3, Duration: 0.02}}
		}, ""},
		{"Faults past the cluster", func(o *train.Options) {
			o.Faults = []fault.Fault{{Kind: fault.Crash, GPU: 4, At: 1e-3}}
		}, "gpu4 out of range (the run has gpu0..gpu3)"},
		{"Faults on a link between machines", func(o *train.Options) {
			o.Faults = []fault.Fault{{Kind: fault.LinkDown, GPU: 1, Peer: 2, At: 1e-3, Duration: 0.01}}
		}, "gpu1-gpu2 spans machines 0 and 1"},
		{"NumSamplers", func(o *train.Options) { o.NumSamplers = 2 }, ""},
		{"NumLoaders", func(o *train.Options) { o.NumLoaders = 2 }, ""},
		{"PullData", func(o *train.Options) { o.PullData = true }, ""},
		{"UnfusedSampling", func(o *train.Options) { o.UnfusedSampling = true }, ""},
		{"CompressTopology", func(o *train.Options) { o.CompressTopology = true }, ""},
		// It used to build and train on seed-only blocks.
		{"negative fan-out", func(o *train.Options) { o.Sample.Fanout = []int{10, -1} }, "Fanout[1] = -1"},
		{"zero layer budget", func(o *train.Options) {
			o.Sample.Fanout, o.Sample.LayerWise = []int{0, 64}, true
		}, "Fanout[0] = 0"},
	} {
		o := smallOpts(td)
		tc.mutate(&o)
		st, err := epoch(o)
		switch {
		case tc.reject != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %q", tc.name, tc.reject)
		case tc.reject != "" && !strings.Contains(err.Error(), tc.reject):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.reject)
		case tc.reject == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.reject == "" && st.EpochTime == plain.EpochTime:
			t.Errorf("%s: epoch time %v identical to the plain run — option ignored", tc.name, st.EpochTime)
		case o.DynamicCache != cache.Static && (st.Rebalances != 2 || st.RebalanceTime <= 0):
			t.Errorf("%s: %d rebalances charging %v at the epoch boundary, want one per machine",
				tc.name, st.Rebalances, st.RebalanceTime)
		}
	}
	// One machine refuses the fan-out the same way: New shares the validator.
	o := smallOpts(td)
	o.Sample.Fanout = []int{10, -1}
	if _, err := core.New(o); err == nil || !strings.Contains(err.Error(), "Fanout[1] = -1") {
		t.Errorf("core.New with a negative fan-out: %v", err)
	}
}

func TestMultiDSPBSPAcrossMachines(t *testing.T) {
	// Training accuracy improves and gradients synchronise globally: two
	// machines see twice the seeds per epoch, and the model still learns.
	td := testData(t, 2)
	o := smallOpts(td)
	o.RealCompute = true
	sys, err := core.NewMulti(o, 2, hw.InfiniBandEDR())
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if _, err := sys.RunEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	acc := train.Evaluate(td, sys.Model(), o.Sample, 500, 9)
	if chance := 1.0 / float64(td.NumClasses); acc < 3*chance {
		t.Fatalf("cluster training stuck at %.3f", acc)
	}
}

func TestMultiDSPScalesAcrossMachines(t *testing.T) {
	// Doubling machines roughly halves epoch time (each machine consumes a
	// stride of the seeds), minus NIC costs.
	td := testData(t, 2)
	o := smallOpts(td)
	run := func(machines int) float64 {
		sys, err := core.NewMulti(o, machines, hw.InfiniBandEDR())
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.EpochTime)
	}
	one := run(1)
	two := run(2)
	if two >= one {
		t.Fatalf("2 machines (%g) not faster than 1 (%g)", two, one)
	}
	if two < one/3 {
		t.Fatalf("2 machines suspiciously fast: %g vs %g", two, one)
	}
}

func TestMultiDSPOnlyColdAndGradOverNIC(t *testing.T) {
	// Paper: "the machines only communicate for cold features and model
	// synchronization" — sampling never crosses the NIC.
	td := testData(t, 2)
	o := smallOpts(td)
	// Force cold rows to exist: cache only a sliver of the features.
	o.FeatureCacheBudget = int64(100 * td.RowBytes())
	sys, err := core.NewMulti(o, 2, hw.InfiniBandEDR())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	net := sys.Machine().Cluster.Net
	if net.Bytes[hw.TrafficSample] != 0 {
		t.Errorf("sampling crossed the NIC: %d bytes", net.Bytes[hw.TrafficSample])
	}
	if net.Bytes[hw.TrafficFeature] == 0 {
		t.Error("no cold-feature NIC traffic")
	}
	if net.Bytes[hw.TrafficGradient] == 0 {
		t.Error("no gradient NIC traffic")
	}
}

// TestAttachTelemetrySeriesNames: one machine registers its scrape sources
// under the names dsp-telemetry/1 documents have always carried; a cluster
// registers the same set once per machine, under m<i>/.
func TestAttachTelemetrySeriesNames(t *testing.T) {
	td := testData(t, 2)
	names := func(machines int) []string {
		var sys *core.DSP
		var err error
		if machines > 1 {
			sys, err = core.NewMulti(smallOpts(td), machines, hw.InfiniBandEDR())
		} else {
			sys, err = core.New(smallOpts(td))
		}
		if err != nil {
			t.Fatal(err)
		}
		hub := telemetry.New(telemetry.Config{})
		sys.AttachTelemetry(hub)
		if _, err := sys.RunEpoch(0); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range hub.Finish(sys.Machine().Eng.Now()).Series {
			if len(s.Values) == 0 {
				t.Errorf("%d machine(s): series %s was never scraped", machines, s.Name)
			}
			out = append(out, s.Name)
		}
		return out
	}
	single := []string{"gpu0/busy", "gpu1/busy", "cache/hit_rate",
		"wire/sample_bytes", "wire/feature_bytes", "wire/gradient_bytes"}
	if got := names(1); !reflect.DeepEqual(got, single) {
		t.Errorf("single-machine series %v, want %v", got, single)
	}
	var cluster []string
	for _, prefix := range []string{"m0/", "m1/"} {
		for _, n := range single {
			cluster = append(cluster, prefix+n)
		}
	}
	if got := names(2); !reflect.DeepEqual(got, cluster) {
		t.Errorf("2-machine series %v, want %v", got, cluster)
	}
}
