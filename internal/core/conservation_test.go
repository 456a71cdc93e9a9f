package core

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/train"
)

func conservationData(t testing.TB) *train.Data {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "conserve", Nodes: 6000, AvgDegree: 12, FeatDim: 32, NumClasses: 8, Seed: 404,
	})
	return train.Prepare(d, 2, 1, true)
}

// conservationOpts exercises every counter family at once: both codecs, a
// tight feature budget (host-tier reads) and the out-of-core store.
func conservationOpts(td *train.Data) train.Options {
	return train.Options{
		Data:               td,
		Model:              nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 16, Classes: td.NumClasses, Layers: 2},
		Sample:             sample.Config{Fanout: []int{8, 6}},
		BatchSize:          256,
		Pipeline:           true,
		UseCCC:             true,
		Seed:               77,
		GradCodec:          compress.NewInt8(77),
		FeatCodec:          compress.FP16{},
		FeatureCacheBudget: int64(200 * td.FeatDim * 4),
		CompressTopology:   true,
		OOC:                true,
		OOCBlockNodes:      256,
	}
}

// counted is what one execution path produced: the counters it reported
// piecewise (per epoch, per committed segment, per fleet), the run report it
// rendered, and what they must add up to.
type counted struct {
	parts  []train.Counters
	report *prof.RunReport
	// subs are the substrates that ran; their snapshots, fabrics and
	// communicators are the ground truth. Serving rows have none to hand
	// and give snapshot and machines directly.
	subs     []*strategy.Substrate
	snapshot train.Counters
	machines []*hw.Machine
	// replayed marks the crashed fault-tolerant run, whose dead fleet counted
	// an aborted segment that was never committed: the parts fall short of
	// the snapshots and are compared with the crash-free run instead.
	replayed bool
}

func sumCounters(parts []train.Counters) train.Counters {
	var c train.Counters
	for _, p := range parts {
		c.Add(p)
	}
	return c
}

func trainEpochs(t *testing.T, sys interface {
	RunEpoch(int) (train.EpochStats, error)
}, n int) (parts []train.Counters, epochs []train.EpochStats) {
	t.Helper()
	for e := 0; e < n; e++ {
		st, err := sys.RunEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		parts, epochs = append(parts, st.Counters), append(epochs, st)
	}
	return parts, epochs
}

func runDSP(t *testing.T, o train.Options) counted {
	t.Helper()
	sys, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	parts, epochs := trainEpochs(t, sys, 2)
	return counted{parts: parts, subs: sys.subs,
		report: train.BuildRunReport(train.ReportInput{Command: "test", Epochs: epochs})}
}

func runMulti(t *testing.T, o train.Options, machines int) counted {
	t.Helper()
	o.OOC, o.OOCBlockNodes = false, 0 // a cluster has no out-of-core tier
	sys, err := NewMulti(o, machines, hw.InfiniBandEDR())
	if err != nil {
		t.Fatal(err)
	}
	parts, epochs := trainEpochs(t, sys, 2)
	return counted{parts: parts, subs: sys.subs,
		report: train.BuildRunReport(train.ReportInput{Command: "test", Epochs: epochs})}
}

func runFT(t *testing.T, o train.Options, faults []fault.Fault) counted {
	t.Helper()
	o.Faults = faults
	var subs []*strategy.Substrate
	build := func() (train.Recoverable, error) {
		sys, err := New(o)
		if err == nil {
			subs = append(subs, sys.subs...)
		}
		return sys, err
	}
	sys, err := build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := train.RunRecoverable(sys, 2, &ckpt.Manager{EverySteps: 3}, build)
	if err != nil {
		t.Fatal(err)
	}
	if (len(rep.Recoveries) > 0) != (len(faults) > 0) {
		t.Fatalf("%d recoveries for %d faults", len(rep.Recoveries), len(faults))
	}
	out := counted{subs: subs, replayed: len(faults) > 0,
		report: train.BuildRunReport(train.ReportInput{Command: "test", Epochs: rep.Epochs, FT: rep})}
	for _, st := range rep.Epochs {
		out.parts = append(out.parts, st.Counters)
	}
	return out
}

func serveConfig(td *train.Data) serve.Config {
	return serve.Config{
		Data: td, Sample: sample.Config{Fanout: []int{6, 4}}, Seed: 42,
		Duration: 0.03, Rate: 4000, Skew: 0.8, UseCCC: true,
		FeatCodec:          compress.FP16{},
		FeatureCacheBudget: int64(200 * td.FeatDim * 4),
		CompressTopology:   true, OOC: true,
	}
}

func runServe(t *testing.T, td *train.Data) counted {
	t.Helper()
	s, err := serve.NewServer(serveConfig(td))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return counted{parts: []train.Counters{rep.Counters}, snapshot: rep.Counters,
		machines: []*hw.Machine{s.Machine()}, report: rep.RunReport(serve.ReportMeta{})}
}

func runFleet(t *testing.T, td *train.Data) counted {
	t.Helper()
	r, err := fleet.NewRouter(fleet.Config{Serve: serveConfig(td), Fleets: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := counted{report: rep.RunReport(serve.ReportMeta{})}
	for i, fr := range rep.PerFleet {
		out.parts = append(out.parts, fr.Counters)
		out.machines = append(out.machines, r.Servers()[i].Machine())
	}
	out.snapshot = sumCounters(out.parts)
	return out
}

// TestCountersConserved: on every execution path, what was reported piecewise
// sums to the substrates' cumulative snapshot, the snapshot equals the fabric
// and NIC counters per class and the communicators' codec stats, and every
// shared report section is the renderer applied to that sum.
func TestCountersConserved(t *testing.T) {
	td := conservationData(t)
	base := conservationOpts(td)
	p3 := base
	p3.Strategy, p3.FeatureCacheBudget = "p3", 0
	multi := base
	multi.NumSamplers, multi.NumLoaders = 2, 2
	crash := []fault.Fault{{Kind: fault.Crash, GPU: 1, At: 0.004}}

	rows := []struct {
		name string
		run  func() counted
	}{
		{"dsp", func() counted { return runDSP(t, base) }},
		{"p3", func() counted { return runDSP(t, p3) }},
		{"multi-instance", func() counted { return runDSP(t, multi) }},
		{"cluster-1", func() counted { return runMulti(t, base, 1) }},
		{"cluster-2", func() counted { return runMulti(t, base, 2) }},
		{"ft-crash-free", func() counted { return runFT(t, base, nil) }},
		{"ft-crashed", func() counted { return runFT(t, base, crash) }},
		{"serve", func() counted { return runServe(t, td) }},
		{"fleet-2", func() counted { return runFleet(t, td) }},
	}
	sums := map[string]train.Counters{}
	for _, row := range rows {
		got := row.run()
		sum := sumCounters(got.parts)
		sums[row.name] = sum
		var codec [hw.TrafficOther + 1]comm.CompressionStats
		var nic int64
		if got.subs != nil {
			got.snapshot = train.Counters{}
			for _, sub := range got.subs {
				got.snapshot.Add(sub.Counters())
				got.machines = append(got.machines, sub.M)
				comms := append([]*comm.Communicator{sub.Trainer.Comm}, sub.Loaders...)
				for _, w := range sub.Worlds {
					comms = append(comms, w.Comm)
				}
				for _, cm := range comms {
					for class, cs := range cm.Compression() {
						codec[class].Raw += cs.Raw
						codec[class].Wire += cs.Wire
					}
				}
			}
			if cl := got.subs[0].M.Cluster; cl != nil {
				for _, b := range cl.Net.Bytes {
					nic += b
				}
			}
			if got.snapshot.Codec != codec {
				t.Errorf("%s: snapshot codec stats %+v != communicators' %+v", row.name, got.snapshot.Codec, codec)
			}
		}
		if !got.replayed && !reflect.DeepEqual(sum, got.snapshot) {
			t.Errorf("%s: reported counters\n%+v\ndo not sum to the cumulative snapshot\n%+v", row.name, sum, got.snapshot)
		}
		fabric := train.FabricCounters(got.machines...)
		snap := got.snapshot
		if snap.SampleWire != fabric.SampleWire || snap.FeatureWire != fabric.FeatureWire ||
			snap.GradWire != fabric.GradWire || snap.InterWire != nic {
			t.Errorf("%s: snapshot wire %d/%d/%d inter %d != fabric %d/%d/%d nic %d", row.name,
				snap.SampleWire, snap.FeatureWire, snap.GradWire, snap.InterWire,
				fabric.SampleWire, fabric.FeatureWire, fabric.GradWire, nic)
		}
		if snap.SampleWire == 0 || snap.FeatureWire == 0 || snap.Codec[hw.TrafficFeature].Wire == 0 {
			t.Errorf("%s: nothing counted: %+v", row.name, snap)
		}
		want := prof.New("test")
		sum.Render(want)
		r := got.report
		if r.Wire != want.Wire || !reflect.DeepEqual(r.Compression, want.Compression) ||
			!reflect.DeepEqual(r.Cache, want.Cache) || !reflect.DeepEqual(r.Store, want.Store) ||
			!reflect.DeepEqual(r.Strategy, want.Strategy) {
			t.Errorf("%s: report sections are not the rendered sum:\n got %+v %+v %+v %+v %+v\nwant %+v %+v %+v %+v %+v", row.name,
				r.Wire, r.Compression, r.Cache, r.Store, r.Strategy,
				want.Wire, want.Compression, want.Cache, want.Store, want.Strategy)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
	}

	// Per-path expectations the sums must also meet.
	if sums["p3"].PushWire == 0 || sums["p3"].PullWire == 0 || sums["p3"].CacheLocal != 0 {
		t.Errorf("p3 counted no exchange (or a row cache): %+v", sums["p3"])
	}
	for _, name := range []string{"dsp", "multi-instance", "cluster-2", "ft-crash-free", "serve", "fleet-2"} {
		if s := sums[name]; s.CacheLocal+s.CachePeer == 0 || s.CacheHost == 0 {
			t.Errorf("%s: tier counts missing: %+v", name, s)
		}
	}
	for _, name := range []string{"dsp", "multi-instance", "ft-crashed", "serve", "fleet-2"} {
		if s := sums[name]; s.StoreHits+s.StoreMisses == 0 || s.Store == nil {
			t.Errorf("%s: store counters missing: %+v", name, s)
		}
	}
	if sums["cluster-2"].InterWire == 0 || sums["cluster-1"].InterWire != 0 {
		t.Errorf("inter-machine wire: 2 machines %d, 1 machine %d", sums["cluster-2"].InterWire, sums["cluster-1"].InterWire)
	}
	// A checkpoint cadence changes no fact, and neither does a crash: the
	// replay recommits exactly what the crash-free run committed.
	plain, free, crashed := sums["dsp"], sums["ft-crash-free"], sums["ft-crashed"]
	for name, other := range map[string]train.Counters{"ft-crash-free": free, "ft-crashed": crashed} {
		if other.SampleWire != plain.SampleWire || other.FeatureWire != plain.FeatureWire ||
			other.GradWire != plain.GradWire || other.Codec != plain.Codec ||
			other.CacheLocal != plain.CacheLocal || other.CachePeer != plain.CachePeer || other.CacheHost != plain.CacheHost {
			t.Errorf("%s wire/compression/cache differ from the plain run:\n%+v\n%+v", name, other, plain)
		}
	}
}

// TestStageHook: the one stage wrapper observes every stage of every step on
// every rank exactly once — whichever instance ran it — and tracing changes
// no total: it only adds one span per observation.
func TestStageHook(t *testing.T) {
	td := conservationData(t)
	for _, sh := range []struct{ s, l int }{{1, 1}, {2, 2}, {3, 2}} {
		run := func(tr *trace.Tracer) train.EpochStats {
			o := conservationOpts(td)
			o.NumSamplers, o.NumLoaders = sh.s, sh.l
			sys, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			sys.Machine().SetTracer(tr)
			st, err := sys.RunEpoch(0)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(sys.Steps() * td.NumGPUs()); st.SampleDist.Count() != want ||
				st.LoadDist.Count() != want || st.TrainDist.Count() != want {
				t.Fatalf("%dS/%dL: stage observations %d/%d/%d, want %d each (steps x ranks)", sh.s, sh.l,
					st.SampleDist.Count(), st.LoadDist.Count(), st.TrainDist.Count(), want)
			}
			return st
		}
		tr := trace.New()
		off, on := run(nil), run(tr)
		if off.SampleStage != on.SampleStage || off.LoadStage != on.LoadStage || off.TrainStage != on.TrainStage ||
			off.EpochTime != on.EpochTime {
			t.Errorf("%dS/%dL: tracing moved a stage total: off %v/%v/%v on %v/%v/%v", sh.s, sh.l,
				off.SampleStage, off.LoadStage, off.TrainStage, on.SampleStage, on.LoadStage, on.TrainStage)
		}
		spans, stalls := 0, 0
		var dur float64
		for _, e := range tr.Events() {
			if e.Cat == "stage" && e.Ph == "X" {
				spans++
				dur += e.Dur
			}
			if e.Name == "queue-wait" {
				stalls++
			}
		}
		if want := 3 * int(on.SampleDist.Count()); spans != want {
			t.Errorf("%dS/%dL: %d stage spans, want %d (one per observation)", sh.s, sh.l, spans, want)
		}
		if stalls == 0 {
			t.Errorf("%dS/%dL: no queue-wait stall spans", sh.s, sh.l)
		}
		total := 1e6 * float64(on.SampleStage+on.LoadStage+on.TrainStage) // spans are in microseconds
		if d := dur - total; d > 1e-9*total || d < -1e-9*total {
			t.Errorf("%dS/%dL: stage spans cover %g us, stage totals %g us", sh.s, sh.l, dur, total)
		}
		// Two instances of a stage share its lane, so their spans overlap
		// there; a lane's busy time is the union of the intervals, never
		// their sum, and its utilisation stays a fraction.
		summed := map[[2]int]float64{}
		for _, e := range tr.Events() {
			if e.Cat == "stage" && e.Ph == "X" {
				summed[[2]int{e.Pid, e.Tid}] += e.Dur / 1e6
			}
		}
		overlapped := false
		profile := prof.Analyze(prof.FromTracer(tr))
		if err := profile.Validate(); err != nil {
			t.Errorf("%dS/%dL: %v", sh.s, sh.l, err)
		}
		for _, lane := range profile.Lanes {
			if lane.Util > 1 {
				t.Errorf("%dS/%dL: %s/%s utilisation %g > 1", sh.s, sh.l, lane.GPU, lane.Lane, lane.Util)
			}
			overlapped = overlapped || summed[[2]int{lane.Pid, lane.Tid}] > lane.Busy*(1+1e-9)
		}
		if overlapped != (sh.s > 1) {
			t.Errorf("%dS/%dL: stage spans overlapping on one lane: %v", sh.s, sh.l, overlapped)
		}
	}
}
