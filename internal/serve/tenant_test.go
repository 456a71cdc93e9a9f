package serve

import (
	"testing"
)

func TestParseTenants(t *testing.T) {
	specs, err := ParseTenants("free:4:500,pro:1,batch:2:100:50")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantSpec{
		{Name: "free", Weight: 4, Rate: 500},
		{Name: "pro", Weight: 1},
		{Name: "batch", Weight: 2, Rate: 100, Burst: 50},
	}
	if len(specs) != len(want) {
		t.Fatalf("parsed %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Fatalf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
	for _, bad := range []string{":2", "a:1,a:2", "a:-1", "a:1:2:3:4", "a:0"} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q) accepted", bad)
		}
	}
	if specs, err := ParseTenants(""); err != nil || specs != nil {
		t.Fatalf("empty spec: %v, %v", specs, err)
	}
}

// TestServeTenantQuota: a rate-capped tenant's overflow is rejected by its
// token bucket (counted into Shed and QuotaRejected), per-tenant counts cover
// every arrival, and request tenancy is recorded on completions.
func TestServeTenantQuota(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.Tenants = []TenantSpec{
		{Name: "free", Weight: 4, Rate: 500},
		{Name: "pro", Weight: 1},
	}
	rep, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if rep.Completed+rep.Shed != rep.Arrived {
		t.Fatalf("accounting: completed %d + shed %d != arrived %d",
			rep.Completed, rep.Shed, rep.Arrived)
	}
	if rep.QuotaRejected == 0 {
		t.Fatal("capped tenant never quota-rejected at 4/5 of 4000 req/s vs 500 req/s")
	}
	if rep.QuotaRejected > rep.Shed {
		t.Fatalf("quota rejections %d exceed shed %d", rep.QuotaRejected, rep.Shed)
	}
	var sum int
	for _, tc := range rep.Tenants {
		sum += tc.Admitted + tc.Rejected
		if tc.Name == "pro" && tc.Rejected > rep.Shed-rep.QuotaRejected {
			t.Fatalf("uncapped tenant rejected %d beyond queue sheds", tc.Rejected)
		}
	}
	if sum != rep.Arrived {
		t.Fatalf("tenant counts sum to %d, arrived %d", sum, rep.Arrived)
	}
	seen := map[int]bool{}
	for _, req := range rep.Requests {
		seen[req.Tenant] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("completions do not span both tenants: %v", seen)
	}
}

// TestServeTenantsPreserveTiming: the tenant stream is independent of arrival
// timing, so configuring unlimited tenants must not change which requests
// arrive or when they complete.
func TestServeTenantsPreserveTiming(t *testing.T) {
	base, err := Serve(testConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 4)
	cfg.Tenants = []TenantSpec{{Name: "a", Weight: 1}, {Name: "b", Weight: 3}}
	tn, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Arrived != tn.Arrived || base.Completed != tn.Completed || base.Makespan != tn.Makespan {
		t.Fatalf("tenanting perturbed the run: %d/%d/%v vs %d/%d/%v",
			base.Arrived, base.Completed, base.Makespan, tn.Arrived, tn.Completed, tn.Makespan)
	}
	for i := range base.Requests {
		a, b := base.Requests[i], tn.Requests[i]
		if a.ID != b.ID || a.Node != b.Node || a.Arrival != b.Arrival || a.Done != b.Done {
			t.Fatalf("request %d differs under tenanting:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestServeGoodput: with an SLO the report carries a goodput counter that
// covers every completion, agrees with the latency histogram, and lands in
// the run-report document.
func TestServeGoodput(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.SLO = 5e-3
	rep, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goodput == nil {
		t.Fatal("no goodput counter with SLO set")
	}
	if rep.Goodput.Total() != uint64(rep.Completed) {
		t.Fatalf("goodput observed %d completions, report has %d",
			rep.Goodput.Total(), rep.Completed)
	}
	var within uint64
	for _, req := range rep.Requests {
		if req.Latency() <= cfg.SLO {
			within++
		}
	}
	if rep.Goodput.Good() != within {
		t.Fatalf("goodput good %d != %d requests within SLO", rep.Goodput.Good(), within)
	}
	rr := rep.RunReport(ReportMeta{GPUs: 4, Seed: cfg.Seed})
	if rr.Serving.Goodput == nil || rr.Serving.Goodput.Good != within {
		t.Fatalf("run report goodput missing or wrong: %+v", rr.Serving.Goodput)
	}
	if err := rr.Validate(); err != nil {
		t.Fatal(err)
	}
}
