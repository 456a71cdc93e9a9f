package serve

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/hw"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/train"
)

func testData(t testing.TB, nGPU int) *train.Data {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "serve-t", Nodes: 3000, AvgDegree: 12, FeatDim: 16, NumClasses: 6, Seed: 11,
	})
	return train.Prepare(d, nGPU, 1, true)
}

func testConfig(t testing.TB, nGPU int) Config {
	t.Helper()
	return Config{
		Data:     testData(t, nGPU),
		Sample:   sample.Config{Fanout: []int{6, 4}},
		Seed:     42,
		Duration: 0.05,
		Rate:     4000,
		Skew:     0.8,
		UseCCC:   true,
	}
}

// TestNewServerRejectsBadConfig: a configuration that cannot serve is an
// error naming the field, not a server that runs on nothing — a fan-out below
// one used to build and answer every request from a seed-only block.
func TestNewServerRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		reject string
	}{
		{"zero duration", func(c *Config) { c.Duration = 0 }, "Duration"},
		{"negative rate", func(c *Config) { c.Rate = -1 }, "Rate"},
		{"fan-out depth", func(c *Config) { c.Sample.Fanout = []int{6, 4, 2} }, "3 fan-outs for 2 model layers"},
		{"negative fan-out", func(c *Config) { c.Sample.Fanout = []int{6, -1} }, "Fanout[1] = -1"},
		{"zero layer budget", func(c *Config) {
			c.Sample.Fanout, c.Sample.LayerWise = []int{0, 32}, true
		}, "Fanout[0] = 0"},
		// Degraded mode re-routes a dead GPU's requests to a live one; with
		// no survivor there is none, so the schedule is an input error.
		{"every GPU crashes", func(c *Config) {
			c.Faults = []fault.Fault{{Kind: fault.Crash, GPU: 0, At: 0.01}, {Kind: fault.Crash, GPU: 1, At: 0.02}}
		}, "crashes all 2 GPUs; at least one must survive (a whole-fleet death is crash@fleetF"},
	} {
		cfg := testConfig(t, 2)
		tc.mutate(&cfg)
		if _, err := NewServer(cfg); err == nil || !strings.Contains(err.Error(), tc.reject) {
			t.Errorf("%s: NewServer answered %v, want an error naming %q", tc.name, err, tc.reject)
		}
	}
}

func TestServeSmoke(t *testing.T) {
	rep, err := Serve(testConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Completed+rep.Shed != rep.Arrived {
		t.Fatalf("accounting: completed %d + shed %d != arrived %d",
			rep.Completed, rep.Shed, rep.Arrived)
	}
	if rep.Latency.Count() != uint64(rep.Completed) {
		t.Fatalf("latency observations %d != completed %d", rep.Latency.Count(), rep.Completed)
	}
	for _, req := range rep.Requests {
		if req.Done < req.Start || req.Start < req.Arrival {
			t.Fatalf("request %d timestamps out of order: %+v", req.ID, req)
		}
	}
}

// TestServeDeterminism: same seed → bitwise-identical per-request latency
// trace and predictions; different seed → different arrival process.
func TestServeDeterminism(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.RealCompute = true
	a, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrived != b.Arrived || a.Completed != b.Completed || a.Shed != b.Shed {
		t.Fatalf("counts differ: %d/%d/%d vs %d/%d/%d",
			a.Arrived, a.Completed, a.Shed, b.Arrived, b.Completed, b.Shed)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("request traces differ in length: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra.ID != rb.ID || ra.Node != rb.Node || ra.GPU != rb.GPU ||
			ra.Arrival != rb.Arrival || ra.Start != rb.Start || ra.Done != rb.Done ||
			ra.Round != rb.Round || ra.Batch != rb.Batch || ra.Pred != rb.Pred {
			t.Fatalf("request %d differs:\n%+v\n%+v", i, ra, rb)
		}
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("makespan differs: %v vs %v", a.Makespan, b.Makespan)
	}

	cfg.Seed = 43
	c, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Arrived == a.Arrived && c.Makespan == a.Makespan {
		t.Fatal("different seed produced identical run")
	}
}

// TestServeOverloadSheds: far past saturation the bounded admission queues
// must shed, and accounting must still balance.
func TestServeOverloadSheds(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.Rate = 200000
	cfg.QueueDepth = 8
	rep, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatalf("no shedding at %vx overload:\n%s", cfg.Rate, rep)
	}
	if rep.Completed+rep.Shed != rep.Arrived {
		t.Fatalf("accounting: completed %d + shed %d != arrived %d",
			rep.Completed, rep.Shed, rep.Arrived)
	}
	if rep.ShedRate() <= 0.2 {
		t.Fatalf("expected heavy shedding, got %.1f%%", 100*rep.ShedRate())
	}
}

// TestServeBatchingAblation: at high offered load dynamic micro-batching
// must beat batch=1 on tail latency (batch=1 pays per-round overhead per
// request and saturates earlier).
func TestServeBatchingAblation(t *testing.T) {
	base := testConfig(t, 4)
	base.Rate = 8000
	run := func(b Batching) *Report {
		cfg := base
		cfg.Batching = b
		rep, err := Serve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	dyn := run(BatchDynamic)
	single := run(BatchSingle)
	t.Logf("dynamic: p99 %.3fms shed %.1f%%", 1e3*dyn.Latency.P99(), 100*dyn.ShedRate())
	t.Logf("batch=1: p99 %.3fms shed %.1f%%", 1e3*single.Latency.P99(), 100*single.ShedRate())
	if dyn.Latency.P99() >= single.Latency.P99() {
		t.Fatalf("dynamic p99 %.3fms not better than batch=1 p99 %.3fms",
			1e3*dyn.Latency.P99(), 1e3*single.Latency.P99())
	}
	if dyn.MeanBatch <= 1.0 {
		t.Fatalf("dynamic mean batch %.2f should exceed 1", dyn.MeanBatch)
	}
}

// TestServeTraceEvents: a traced run emits per-request spans, round spans,
// queue-depth counters, and (under overload) shed instants.
func TestServeTraceEvents(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.Rate = 100000
	cfg.QueueDepth = 8
	tr := trace.New()
	cfg.Tracer = tr
	rep, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spans, rounds, counters, sheds int
	for _, e := range tr.Events() {
		switch {
		case e.Ph == "X" && e.Cat == "request":
			spans++
		case e.Ph == "X" && e.Cat == "serve":
			rounds++
		case e.Ph == "C" && e.Name == "admission-queue":
			counters++
		case e.Ph == "i" && e.Name == "shed":
			sheds++
		}
	}
	if spans != rep.Completed {
		t.Fatalf("request spans %d != completed %d", spans, rep.Completed)
	}
	if rounds == 0 || counters == 0 {
		t.Fatalf("missing round spans (%d) or counters (%d)", rounds, counters)
	}
	if rep.Shed > 0 && sheds != rep.Shed {
		t.Fatalf("shed instants %d != shed count %d", sheds, rep.Shed)
	}
}

// TestServeFaultSpansOnFaultLane: a traced run's fault spans render on the
// fault lane, never on the lane serving draws its request spans on, where
// the profile would count a stall as "requests" busy time.
func TestServeFaultSpansOnFaultLane(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.Faults = []fault.Fault{{Kind: fault.Stall, GPU: 1, At: 0.01, Duration: 0.005}}
	tr := trace.New()
	cfg.Tracer = tr
	if _, err := Serve(cfg); err != nil {
		t.Fatal(err)
	}
	faults := 0
	for _, e := range tr.Events() {
		if e.Cat != "fault" {
			continue
		}
		faults++
		if e.Tid == trace.LaneRequests || e.Tid != trace.LaneFaults {
			t.Errorf("fault event %q on lane %d, want trace.LaneFaults (%d), never trace.LaneRequests (%d)",
				e.Name, e.Tid, trace.LaneFaults, trace.LaneRequests)
		}
	}
	if faults == 0 {
		t.Fatal("traced stall emitted no fault event")
	}
	if got := tr.LaneNames()[[2]int{1, trace.LaneFaults}]; got != "faults" {
		t.Errorf("GPU 1's fault lane is named %q, want \"faults\"", got)
	}
}

// TestServeP3Strategy drives serving through the p3 strategy's Load + Infer:
// requests are conserved, same-seed run reports are byte-identical, the
// row-cache tiers stay empty (every read lands in the local dimension
// slice), and the report's push volume is the strategy's own accounting.
func TestServeP3Strategy(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.Strategy = "p3"
	cfg.RealCompute = true
	run := func() (*Server, *Report, []byte) {
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		rr := rep.RunReport()
		rr.Dataset, rr.GPUs, rr.Seed = cfg.Data.Name, 4, cfg.Seed
		if err := rr.Validate(); err != nil {
			t.Fatal(err)
		}
		js, err := rr.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return s, rep, js
	}
	s, rep, a := run()
	_, _, b := run()
	if !bytes.Equal(a, b) {
		t.Error("same-seed p3 serving reports differ")
	}
	if rep.Completed == 0 || rep.Completed+rep.Shed != rep.Arrived {
		t.Errorf("accounting: completed %d + shed %d != arrived %d", rep.Completed, rep.Shed, rep.Arrived)
	}
	if rep.Tiers != (cache.Tiers{}) {
		t.Errorf("p3 has no row cache, yet tier counts = %+v", rep.Tiers)
	}
	sec := rep.RunReport().Strategy
	if sec == nil || sec.Name != "p3" || rep.Strategy != "p3" {
		t.Fatalf("strategy section = %+v, report strategy %q; want p3", sec, rep.Strategy)
	}
	if rep.PushWire != sec.PushBytes || rep.PushWire != s.sub.Counters().PushWire || rep.PushWire <= 0 {
		t.Errorf("Report.PushWire = %d, section push_bytes = %d, substrate snapshot %d; want equal and positive",
			rep.PushWire, sec.PushBytes, s.sub.Counters().PushWire)
	}
	if sec.PullBytes != 0 {
		t.Errorf("serving ran no backward pull, yet PullBytes = %d", sec.PullBytes)
	}
	for _, req := range rep.Requests {
		if req.Pred < 0 {
			t.Fatalf("request %d has no prediction under RealCompute", req.ID)
		}
	}
}

// TestReportCountersMatchSubstrate: the report's counter set is the serving
// substrate's snapshot — its wire is the fabric's and its codec stats are the
// communicators' (the serving rows of core's TestCountersConserved cannot
// reach the communicators; this does).
func TestReportCountersMatchSubstrate(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.FeatCodec = compress.FP16{}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var raw, wire int64
	for _, c := range append(s.sub.Loaders, s.sub.Worlds[0].Comm) {
		cs := c.Compression()[hw.TrafficFeature]
		raw, wire = raw+cs.Raw, wire+cs.Wire
	}
	if got := rep.Codec[hw.TrafficFeature]; got.Raw != raw || got.Wire != wire || wire == 0 || 2*wire != raw {
		t.Errorf("report codec stats %+v, communicators raw %d wire %d (fp16 halves)", got, raw, wire)
	}
	f := &s.m.Fabric.Counters
	if rep.SampleWire != f.TotalWire(hw.TrafficSample) || rep.FeatureWire != f.TotalWire(hw.TrafficFeature) {
		t.Errorf("report wire %d/%d != fabric %d/%d", rep.SampleWire, rep.FeatureWire,
			f.TotalWire(hw.TrafficSample), f.TotalWire(hw.TrafficFeature))
	}
}
