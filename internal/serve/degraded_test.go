package serve

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// TestServeDegradedSurvivesCrash: a GPU crash mid-run switches the fleet to
// degraded mode — the dead GPU's requests re-route, in-flight rounds retry
// under the reduced membership, and the fleet keeps answering. Crashing GPU 0
// also exercises CCC leader failover (the grant leader is the lowest live
// rank).
func TestServeDegradedSurvivesCrash(t *testing.T) {
	cfg := testConfig(t, 4)
	crashAt := 0.02
	cfg.Faults = []fault.Fault{{Kind: fault.Crash, GPU: 0, At: 0.02}}
	rep, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The text form is the shared run-report view of the report's sections,
	// the summary dspserve prints; the degraded lines are in it.
	text := rep.String()
	t.Logf("\n%s", text)
	if want := rep.RunReport().Summary(); text != want {
		t.Fatalf("Report.String() is not RunReport().Summary():\n%s\n---\n%s", text, want)
	}
	for _, line := range []string{"dead gpus [0]", "crash gpu0 at 0.02s", "serving: offered 4000 req/s"} {
		if !strings.Contains(text, line) {
			t.Errorf("summary lacks %q", line)
		}
	}
	if len(rep.DeadGPUs) != 1 || rep.DeadGPUs[0] != 0 {
		t.Fatalf("dead GPUs = %v, want [0]", rep.DeadGPUs)
	}
	if len(rep.Recoveries) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(rep.Recoveries))
	}
	rec := rep.Recoveries[0]
	if rec.GPU != 0 || float64(rec.At) != crashAt {
		t.Errorf("recovery %+v, want crash of gpu0 at %v", rec, crashAt)
	}
	if rec.MTTR <= 0 {
		t.Errorf("MTTR %v: fleet never completed a request after the crash", rec.MTTR)
	}
	// The fleet must keep answering after the crash, and nothing may land on
	// the dead GPU.
	after := 0
	for _, req := range rep.Requests {
		if req.Done > rec.At {
			after++
			if req.GPU == 0 {
				t.Fatalf("request %d completed on dead GPU 0", req.ID)
			}
		}
	}
	if after == 0 {
		t.Fatal("no requests completed after the crash")
	}
	if rep.Rerouted == 0 {
		t.Error("no requests rerouted away from the dead GPU")
	}
	// Every arrival is accounted for exactly once: answered, shed at
	// admission, or lost with the dead GPU.
	if rep.Completed+rep.Shed+rep.Lost != rep.Arrived {
		t.Fatalf("accounting: completed %d + shed %d + lost %d != arrived %d",
			rep.Completed, rep.Shed, rep.Lost, rep.Arrived)
	}
	if rep.Lost < 0 {
		t.Fatalf("negative lost count %d", rep.Lost)
	}
}

// TestServeDegradedDeterministic: degraded-mode runs are as reproducible as
// healthy ones — same seed and fault schedule give a bitwise-identical
// per-request trace, loss/reroute accounting and recovery records.
func TestServeDegradedDeterministic(t *testing.T) {
	mk := func() *Report {
		cfg := testConfig(t, 4)
		cfg.RealCompute = true
		cfg.Faults = []fault.Fault{{Kind: fault.Crash, GPU: 2, At: 0.015}}
		rep, err := Serve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := mk(), mk()
	if len(a.Recoveries) != 1 || len(b.Recoveries) != 1 || a.Recoveries[0] != b.Recoveries[0] {
		t.Fatalf("recovery records differ: %+v vs %+v", a.Recoveries, b.Recoveries)
	}
	if a.Makespan != b.Makespan || a.Completed != b.Completed ||
		a.Shed != b.Shed || a.Lost != b.Lost || a.Rerouted != b.Rerouted {
		t.Fatalf("degraded accounting differs:\n%s\n---\n%s", a, b)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("request counts differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if *ra != *rb {
			t.Fatalf("request %d differs:\n  %+v\n  %+v", i, *ra, *rb)
		}
	}
}

// TestServeLinkFaultsSlowButComplete: transient link faults (outage and
// degradation) delay serving without changing what is answered.
func TestServeLinkFaultsSlowButComplete(t *testing.T) {
	base := testConfig(t, 4)
	clean, err := Serve(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 4)
	cfg.Faults = []fault.Fault{
		{Kind: fault.LinkDown, GPU: 0, Peer: 1, At: 0.01, Duration: 0.01},
		{Kind: fault.LinkDegrade, GPU: 2, Peer: 3, At: 0.02, Duration: 0.02, Factor: 4},
	}
	faulty, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty.DeadGPUs) != 0 || len(faulty.Recoveries) != 0 {
		t.Fatalf("link faults must not kill GPUs: dead %v recoveries %v",
			faulty.DeadGPUs, faulty.Recoveries)
	}
	if faulty.Completed == 0 {
		t.Fatal("no requests completed under link faults")
	}
	if faulty.Completed+faulty.Shed != faulty.Arrived {
		t.Fatalf("accounting: completed %d + shed %d != arrived %d",
			faulty.Completed, faulty.Shed, faulty.Arrived)
	}
	if faulty.Latency.Mean() <= clean.Latency.Mean() {
		t.Errorf("link faults did not raise mean latency: %.3fms vs clean %.3fms",
			1e3*faulty.Latency.Mean(), 1e3*clean.Latency.Mean())
	}
	t.Logf("clean mean %.3fms, faulty mean %.3fms",
		1e3*clean.Latency.Mean(), 1e3*faulty.Latency.Mean())
}

// TestCrashShedsTraced: a crash re-routes the dead GPU's queued requests into
// a live GPU's full queue, and each one shed there is a "shed" trace instant
// at the crash instant, as an admission shed is — the trace counts exactly
// the report's sheds.
func TestCrashShedsTraced(t *testing.T) {
	cfg := testConfig(t, 2)
	const crashAt = 0.02
	cfg.Faults = []fault.Fault{{Kind: fault.Crash, GPU: 1, At: crashAt}}
	cfg.QueueDepth, cfg.MaxBatch = 4, 1
	cfg.Rate = 20000
	tr := trace.New()
	cfg.Tracer = tr
	rep, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sheds, atCrash int
	for _, e := range tr.Events() {
		if e.Ph == "i" && e.Name == "shed" {
			sheds++
			if e.Ts == crashAt*1e6 {
				atCrash++
			}
		}
	}
	if sheds != rep.Shed {
		t.Errorf("%d shed instants in the trace, the report sheds %d", sheds, rep.Shed)
	}
	if atCrash == 0 {
		t.Error("no shed at the crash instant: the scenario no longer sheds re-routed requests")
	}
}
