package fleet

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

func testData(t testing.TB, nGPU int) *train.Data {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "fleet-t", Nodes: 2000, AvgDegree: 10, FeatDim: 16, NumClasses: 6, Seed: 11,
	})
	return train.Prepare(d, nGPU, 1, true)
}

func testConfig(t testing.TB, fleets int) Config {
	t.Helper()
	return Config{
		Serve: serve.Config{
			Data:     testData(t, 2),
			Sample:   sample.Config{Fanout: []int{6, 4}},
			Seed:     42,
			Duration: 0.05,
			Rate:     4000,
			Skew:     0.8,
			UseCCC:   true,
			SLO:      10e-3,
		},
		Fleets: fleets,
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkAccounting asserts the router-level conservation law: every arrival is
// shed at the router, completed by some fleet, or lost inside a dead one.
func checkAccounting(t *testing.T, rep *Report) {
	t.Helper()
	if got := rep.Completed() + rep.Shed + rep.Lost(); got != rep.Arrived {
		t.Fatalf("accounting: completed %d + shed %d + lost %d = %d != arrived %d",
			rep.Completed(), rep.Shed, rep.Lost(), got, rep.Arrived)
	}
	if rep.Latency.Count() != uint64(rep.Completed()) {
		t.Fatalf("latency observations %d != completed %d", rep.Latency.Count(), rep.Completed())
	}
}

func TestFleetSmoke(t *testing.T) {
	rep := mustRun(t, testConfig(t, 2))
	t.Logf("\n%s", rep.RunReport().Summary())
	if rep.Completed() == 0 {
		t.Fatal("no requests completed")
	}
	checkAccounting(t, rep)
	for _, f := range rep.Fleets {
		if f.Routed == 0 {
			t.Fatalf("fleet%d received no traffic under round-robin", f.ID)
		}
		if f.State != Active {
			t.Fatalf("fleet%d ended %v, want active", f.ID, f.State)
		}
	}
	if rep.Goodput == nil || rep.Goodput.Total() != uint64(rep.Completed()) {
		t.Fatalf("merged goodput missing or incomplete: %v", rep.Goodput)
	}
}

func TestFleetPolicies(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastLoaded, LatencyAware, ShardAffinity} {
		cfg := testConfig(t, 3)
		cfg.Policy = pol
		rep := mustRun(t, cfg)
		if rep.Completed() == 0 {
			t.Fatalf("%s: no completions", pol)
		}
		checkAccounting(t, rep)
		if rep.Policy != pol {
			t.Fatalf("report policy %v != %v", rep.Policy, pol)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
	}{
		{"", RoundRobin}, {"rr", RoundRobin}, {"least-loaded", LeastLoaded},
		{"la", LatencyAware}, {"shard-affinity", ShardAffinity},
	} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus policy")
	}
}

// TestFleetRunReportDeterminism: the same seed with N fleets produces a
// byte-identical dsp-runreport document across runs.
func TestFleetRunReportDeterminism(t *testing.T) {
	encode := func() []byte {
		cfg := testConfig(t, 3)
		cfg.Policy = LeastLoaded
		rr := mustRun(t, cfg).RunReport()
		rr.Dataset, rr.GPUs, rr.Seed = "fleet-t", 6, 42
		if err := rr.Validate(); err != nil {
			t.Fatal(err)
		}
		data, err := rr.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("runreport not byte-identical across runs:\n%s\n---\n%s", a, b)
	}
}

// TestFleetReportCarriesTelemetry: a routed run with a hub gets its
// telemetry section from the one run-report epilogue, as a stand-alone run
// does. The fleet builder once stamped its own epilogue and dropped the
// section, so `dspserve -fleets 2 -telemetry -report` wrote none.
func TestFleetReportCarriesTelemetry(t *testing.T) {
	cfg := testConfig(t, 2)
	hub := telemetry.New(telemetry.Config{SLO: cfg.Serve.SLO})
	cfg.Serve.Telemetry = hub
	rep := mustRun(t, cfg)
	doc := hub.Finish(rep.Makespan)
	rr := rep.RunReport()
	rr.Attach(doc.Section(), nil)
	if rr.Telemetry == nil || rr.Telemetry.Scrapes == 0 || !reflect.DeepEqual(rr.Telemetry, doc.Section()) {
		t.Fatalf("fleet report telemetry = %+v, want the hub's section %+v", rr.Telemetry, doc.Section())
	}
	if err := rr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rr.Summary(), "telemetry: ") {
		t.Fatalf("summary has no telemetry line:\n%s", rr.Summary())
	}
}

// TestFleetCrashReroute: killing one of three fleets mid-run drains it, the
// router re-homes its queued requests, and the run still completes with the
// loss attributed to the dead replica.
func TestFleetCrashReroute(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.Serve.Rate = 12000 // enough depth that the dying fleet holds queued work
	ffs, err := fault.ParseFleetSpec("crash@fleet1:t=0.02", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = ffs
	rep := mustRun(t, cfg)
	t.Logf("\n%s", rep.RunReport().Summary())
	checkAccounting(t, rep)
	if got := rep.DeadFleets(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("dead fleets %v, want [1]", got)
	}
	dead := rep.Fleets[1]
	if dead.State != Dead {
		t.Fatalf("fleet1 state %v, want dead", dead.State)
	}
	if !rep.PerFleet[1].Killed || rep.PerFleet[1].KilledAt != 0.02 {
		t.Fatalf("fleet1 kill not recorded: killed=%v at=%v",
			rep.PerFleet[1].Killed, rep.PerFleet[1].KilledAt)
	}
	if rep.Rerouted == 0 {
		t.Fatal("no requests were rescued from the dying fleet")
	}
	if dead.Lost == 0 {
		t.Fatal("a fleet killed mid-round should lose its dispatched requests")
	}
	// Survivors keep completing after the crash instant.
	for _, f := range []int{0, 2} {
		after := 0
		for _, req := range rep.PerFleet[f].Requests {
			if req.Done > 0.02 {
				after++
			}
		}
		if after == 0 {
			t.Fatalf("fleet%d completed nothing after the crash", f)
		}
	}
	// The dead fleet must not receive traffic after its death: every routed
	// request either completed, was rescued, or died with it.
	if dead.Routed != dead.Completed+rep.rescuedOf(1)+dead.Lost {
		t.Fatalf("fleet1 routed %d != completed %d + rescued %d + lost %d",
			dead.Routed, dead.Completed, rep.rescuedOf(1), dead.Lost)
	}
}

// TestFleetGPUCrashShedsConserved: a fleet-scoped GPU crash re-routes the
// dead GPU's queued requests inside its replica, and the ones the next live
// GPU's full queue turns away are sheds on the router's ledger too, so every
// arrival is still accounted for.
func TestFleetGPUCrashShedsConserved(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		cfg := testConfig(t, 2)
		cfg.Serve.Rate, cfg.Serve.MaxBatch, cfg.Serve.QueueDepth = 20000, 1, depth
		ffs, err := fault.ParseFleetSpec("crash@fleet0/gpu1:t=0.02", 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = ffs
		rep := mustRun(t, cfg)
		if rep.PerFleet[0].Rerouted == 0 {
			t.Fatalf("queue depth %d: fleet0 re-routed nothing off its dead GPU", depth)
		}
		checkAccounting(t, rep)
	}
}

// rescuedOf extracts the router-rescued component of a fleet's Rerouted count
// (its serve-internal GPU reroutes are the rest).
func (r *Report) rescuedOf(f int) int {
	return r.Fleets[f].Rerouted - r.PerFleet[f].Rerouted
}

// TestFleetTenantQuota: a rate-capped tenant is quota-rejected at the router
// while the uncapped tenant is untouched, and per-tenant counts cover every
// arrival.
func TestFleetTenantQuota(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Serve.Tenants = []serve.TenantSpec{
		{Name: "free", Weight: 4, Rate: 500},
		{Name: "pro", Weight: 1},
	}
	rep := mustRun(t, cfg)
	t.Logf("\n%s", rep.RunReport().Summary())
	checkAccounting(t, rep)
	if rep.QuotaRejected == 0 {
		t.Fatal("capped tenant was never quota-rejected")
	}
	var sum int
	for _, tc := range rep.Tenants {
		sum += tc.Admitted + tc.Rejected
		if tc.Name == "free" && tc.Rejected == 0 {
			t.Fatal("tenant free has quota 500 req/s under 4/5 of 4000 req/s but was never rejected")
		}
		if tc.Name == "pro" && tc.Rejected != 0 {
			t.Fatalf("uncapped tenant pro rejected %d times", tc.Rejected)
		}
	}
	if sum != rep.Arrived {
		t.Fatalf("tenant counts sum to %d, arrived %d", sum, rep.Arrived)
	}
}

// TestFleetAutoscaler: one active fleet under heavy load scales up into its
// standby headroom; after scale-up the new fleet carries traffic.
func TestFleetAutoscaler(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Serve.Rate = 20000
	cfg.Serve.Duration = 0.1
	cfg.Policy = LeastLoaded
	// Up well under the observed single-fleet p99 so saturation trips it.
	cfg.Autoscale = Autoscale{Min: 1, Max: 3, Period: 10e-3, Up: 2e-3}
	rep := mustRun(t, cfg)
	t.Logf("\n%s", rep.RunReport().Summary())
	checkAccounting(t, rep)
	ups := 0
	for _, e := range rep.Scale {
		if e.Action == "up" {
			ups++
		}
	}
	if ups == 0 {
		t.Fatalf("saturated single fleet never scaled up: %+v", rep.Scale)
	}
	carried := 0
	for _, f := range rep.Fleets[1:] {
		carried += f.Routed
	}
	if carried == 0 {
		t.Fatal("scaled-up fleets carried no traffic")
	}
}

// TestFleetAutoscalerDrains: a heavily over-provisioned fleet set under light
// load drains down toward Min.
func TestFleetAutoscalerDrains(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.Serve.Rate = 500
	cfg.Serve.Duration = 0.1
	// Down above the observed light-load p99 so comfort trips a drain.
	cfg.Autoscale = Autoscale{Min: 1, Max: 3, Period: 10e-3, Up: 20e-3, Down: 5e-3}
	rep := mustRun(t, cfg)
	t.Logf("\n%s", rep.RunReport().Summary())
	drains := 0
	for _, e := range rep.Scale {
		if e.Action == "drain" {
			drains++
		}
	}
	if drains == 0 {
		t.Fatalf("idle fleets never drained: %+v", rep.Scale)
	}
}

// TestFleetSingleEqualsServe: a 1-fleet router is the degenerate case — the
// same conservation laws hold, all traffic lands on fleet 0, and it runs the
// stand-alone server's one arrival process: same arrivals, same quota
// rejections and tenant split, the same requests at the same instants.
func TestFleetSingleEqualsServe(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Serve.Tenants = []serve.TenantSpec{{Name: "free", Weight: 4, Rate: 500}, {Name: "pro", Weight: 1}}
	cfg.Serve.DriftEvery = 0.01
	rep := mustRun(t, cfg)
	checkAccounting(t, rep)
	if rep.Fleets[0].Routed != rep.Arrived-rep.Shed {
		t.Fatalf("fleet0 routed %d != admitted %d", rep.Fleets[0].Routed, rep.Arrived-rep.Shed)
	}
	alone, err := serve.Serve(cfg.Serve)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrived != alone.Arrived || rep.QuotaRejected != alone.QuotaRejected ||
		!reflect.DeepEqual(rep.Tenants, alone.Tenants) {
		t.Fatalf("router admission %d arrived, %d quota-rejected, tenants %+v; stand-alone %d, %d, %+v",
			rep.Arrived, rep.QuotaRejected, rep.Tenants, alone.Arrived, alone.QuotaRejected, alone.Tenants)
	}
	t.Logf("arrived %d, quota-rejected %d, tenants %+v", rep.Arrived, rep.QuotaRejected, rep.Tenants)
	routed := rep.PerFleet[0].Requests
	if len(routed) != len(alone.Requests) {
		t.Fatalf("router completed %d requests, stand-alone %d", len(routed), len(alone.Requests))
	}
	for i, a := range alone.Requests {
		b := routed[i]
		if a.ID != b.ID || a.Node != b.Node || a.Tenant != b.Tenant || a.Arrival != b.Arrival {
			t.Fatalf("request %d differs: stand-alone %+v, routed %+v", i, *a, *b)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(t, 0)
	if _, err := NewRouter(cfg); err == nil {
		t.Fatal("Fleets=0 accepted")
	}
	cfg = testConfig(t, 3)
	cfg.Autoscale = Autoscale{Min: 1, Max: 2}
	if _, err := NewRouter(cfg); err == nil {
		t.Fatal("Autoscale.Max below Fleets accepted")
	}
	cfg = testConfig(t, 2)
	cfg.Serve.Faults = []fault.Fault{{Kind: fault.Crash, GPU: 0, At: 0.01}}
	if _, err := NewRouter(cfg); err == nil {
		t.Fatal("template fault schedule accepted")
	}
	cfg = testConfig(t, 2)
	cfg.Serve.Tracer = trace.New()
	if _, err := NewRouter(cfg); err == nil || !strings.Contains(err.Error(), "Tracer") {
		t.Fatalf("template tracer: NewRouter answered %v", err)
	}
	// A scoped schedule that kills every GPU of one fleet leaves its
	// degraded mode nowhere to re-route: the replica constructor rejects it
	// and points at the fleet-level crash.
	ffs, err := fault.ParseFleetSpec("crash@fleet0/gpu0:t=0.01,crash@fleet0/gpu1:t=0.02", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg = testConfig(t, 2)
	cfg.Faults = ffs
	if _, err := NewRouter(cfg); err == nil || !strings.Contains(err.Error(), "fleet 0: serve: fault schedule crashes all 2 GPUs") ||
		!strings.Contains(err.Error(), "crash@fleetF") {
		t.Fatalf("all-GPU crash of fleet 0: NewRouter answered %v", err)
	}
}

// TestNonFiniteKnobsRejected: a NaN or infinite duration, rate, skew or
// period is refused by name — by a stand-alone server and by a router —
// instead of hanging the arrival loop or flushing every round.
func TestNonFiniteKnobsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		set   func(*serve.Config)
	}{
		{"Duration", func(c *serve.Config) { c.Duration = sim.Time(nan) }},
		{"Duration", func(c *serve.Config) { c.Duration = sim.Time(inf) }},
		{"Rate", func(c *serve.Config) { c.Rate = nan }},
		{"Rate", func(c *serve.Config) { c.Rate = inf }},
		{"Skew", func(c *serve.Config) { c.Skew = nan }},
		{"MaxWait", func(c *serve.Config) { c.MaxWait = sim.Time(nan) }},
		{"RebalanceEvery", func(c *serve.Config) { c.RebalanceEvery = sim.Time(-inf) }},
		{"DriftEvery", func(c *serve.Config) { c.DriftEvery = sim.Time(nan) }},
		{"SLO", func(c *serve.Config) { c.SLO = sim.Time(inf) }},
	} {
		cfg := testConfig(t, 2)
		tc.set(&cfg.Serve)
		want := "Config." + tc.field + " must be finite"
		if _, err := serve.NewServer(cfg.Serve); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: NewServer answered %v, want %q", tc.field, err, want)
		}
		if _, err := NewRouter(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: NewRouter answered %v, want %q", tc.field, err, want)
		}
	}
}
