package serve

import (
	"math"
	"strings"
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
	// A non-finite value is refused by the name of its field: Inf used to
	// pass "v < 0" and take every arrival, NaN to switch a quota off.
	for bad, field := range map[string]string{
		"a:Inf,b:1": "weight", "a:1:NaN,b:1": "rate", "a:1:1:+Inf": "burst", "a:nan": "weight",
	} {
		_, err := ParseTenants(bad)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("ParseTenants(%q) = %v; want an error naming %s", bad, err, field)
		}
	}
	if specs, err := ParseTenants(""); err != nil || specs != nil {
		t.Fatalf("empty spec: %v, %v", specs, err)
	}
}

// FuzzParseTenants feeds arbitrary -tenants specs to ParseTenants, seeded
// with the dspserve doc and CI examples and the non-finite values it once
// let through. A bad spec is an error, never a panic, and every accepted
// tenant is named, with a finite weight > 0 and finite rate and burst >= 0.
func FuzzParseTenants(f *testing.F) {
	for _, spec := range []string{
		"free:4:500,pro:1", "free:4:2000,pro:1", "free:4:500,pro:1,batch:2:100:50", "",
		"a:Inf,b:1", "a:1:NaN,b:1", "a:1:1:-Inf", "a:1e309",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		specs, err := ParseTenants(spec)
		if err != nil {
			return
		}
		for _, s := range specs {
			if s.Name == "" || !(s.Weight > 0) || !(s.Rate >= 0) || !(s.Burst >= 0) ||
				math.IsInf(s.Weight, 0) || math.IsInf(s.Rate, 0) || math.IsInf(s.Burst, 0) {
				t.Fatalf("ParseTenants(%q) accepted %+v", spec, s)
			}
		}
	})
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
	rr := rep.RunReport()
	rr.GPUs, rr.Seed = 4, cfg.Seed
	if rr.Serving.Goodput == nil || rr.Serving.Goodput.Good != within {
		t.Fatalf("run report goodput missing or wrong: %+v", rr.Serving.Goodput)
	}
	if err := rr.Validate(); err != nil {
		t.Fatal(err)
	}
}
