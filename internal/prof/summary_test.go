package prof

import (
	"strings"
	"testing"
)

// TestSummaryRendersServingFacts: the shared text view carries every
// quantity the serving and fleet reports' own text forms used to print
// (bar the horizon, which the run banner prints), read off the report.
func TestSummaryRendersServingFacts(t *testing.T) {
	r := New("dspserve")
	r.System, r.Dataset, r.GPUs, r.Seed = "DSP", "products", 4, 7
	r.WallTime = 0.5
	r.Latency = &LatencySummary{Count: 900, Mean: 1.25e-3, P50: 1e-3, P95: 2e-3, P99: 3e-3, Max: 9.5e-3}
	r.Cache = &CacheReport{Policy: "lfu", Local: 10, Peer: 20, Host: 30, HitRate: 0.5,
		Promoted: 123, MovedBytes: 4_560_000, Rebalances: 17, RebalanceTime: 2.5e-3}
	r.Serving = &ServingReport{Offered: 4000, Throughput: 1800, Arrived: 1000, Completed: 900, Shed: 42,
		ShedRate: 0.042, Rounds: 55, MeanBatch: 3.5, ExpectedHitRate: 0.625,
		Rerouted: 11, Lost: 6, DeadGPUs: []int{2}}
	r.Faults = &FaultReport{MeanMTTR: 4e-3, Recoveries: []RecoveryReport{{GPU: 2, At: 0.125, MTTR: 4e-3}}}
	r.Fleet = &FleetSection{Policy: "least-loaded", Built: 2, Active: 1, PerFleet: []FleetEntry{
		{ID: 0, State: "active", Routed: 600, Completed: 590},
		{ID: 1, State: "dead", Routed: 400, Completed: 310, Lost: 6, DeadGPUs: []int{1, 3}},
	}}
	got := r.Summary()
	for _, tc := range []struct{ what, text string }{
		{"offered rate", "offered 4000 req/s"},
		{"arrived", "arrived 1000"},
		{"completed", "completed 900"},
		{"shed count", "shed 42"},
		{"mean batch", "mean batch 3.5"},
		{"expected hit rate", "expected cache hit 62.5%"},
		{"latency mean", "mean 1.25ms"},
		{"latency max", "max 9.5ms"},
		{"rebalances", "rebalances 17"},
		{"promoted rows", "promoted 123 rows"},
		{"migrated MB", "migrated 4.56 MB"},
		{"rebalance overhead", "overhead 2.5ms"},
		{"dead GPUs", "dead gpus [2]"},
		{"rerouted", "rerouted 11"},
		{"lost", "lost 6"},
		{"recovery GPU and crash time", "crash gpu2 at 0.125s"},
		{"recovery MTTR", "mttr 4ms"},
		{"a fleet's dead GPUs", "dead gpus [1 3]"},
	} {
		if !strings.Contains(got, tc.text) {
			t.Errorf("summary lacks the %s (%q):\n%s", tc.what, tc.text, got)
		}
	}
}

// TestSummaryWithoutIdentity: a report no CLI stamped (a library caller's
// serve.Report) names only command and system on its first line.
func TestSummaryWithoutIdentity(t *testing.T) {
	r := New("dspserve")
	r.System = "DSP"
	if first, _, _ := strings.Cut(r.Summary(), "\n"); first != "dspserve run: DSP" {
		t.Fatalf("first line %q", first)
	}
	if (*Profile)(nil).Summary() != "" {
		t.Fatal("a nil profile renders text")
	}
}
