package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TenantSpec describes one tenant of a multi-tenant serving run: its share
// of the arrival stream and its admission quota.
type TenantSpec struct {
	Name string
	// Weight is the tenant's share of arrivals (relative; defaults to 1).
	Weight float64
	// Rate is the tenant's admission quota in requests per virtual second
	// (token-bucket refill rate; 0 = unlimited).
	Rate float64
	// Burst is the token-bucket depth (defaults to max(1, Rate/100): a 10 ms
	// burst allowance).
	Burst float64
}

// TenantCount is one tenant's admission outcome totals.
type TenantCount struct {
	Name     string
	Admitted int
	Rejected int
}

// ParseTenants parses a comma-separated tenant spec:
//
//	name:weight[:rate[:burst]]
//
// e.g. "free:4:500,pro:1" — tenant "free" gets 4/5 of arrivals capped at
// 500 req/s, tenant "pro" 1/5 uncapped. An empty spec yields nil (untenanted).
func ParseTenants(spec string) ([]TenantSpec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []TenantSpec
	seen := map[string]bool{}
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if parts[0] == "" {
			return nil, fmt.Errorf("serve: tenant entry %q has no name", entry)
		}
		t := TenantSpec{Name: parts[0], Weight: 1}
		if seen[t.Name] {
			return nil, fmt.Errorf("serve: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		fields := []*float64{&t.Weight, &t.Rate, &t.Burst}
		names := []string{"weight", "rate", "burst"}
		if len(parts)-1 > len(fields) {
			return nil, fmt.Errorf("serve: tenant entry %q has too many fields (want name:weight[:rate[:burst]])", entry)
		}
		for i, p := range parts[1:] {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("serve: tenant %q: bad %s %q (want a finite number >= 0)", t.Name, names[i], p)
			}
			*fields[i] = v
		}
		if t.Weight <= 0 {
			return nil, fmt.Errorf("serve: tenant %q needs a positive weight", t.Name)
		}
		out = append(out, t)
	}
	return out, nil
}

// tenantTable is the runtime admission state of a tenant set: a seeded
// weight-proportional tenant draw, one token bucket per quota-bearing tenant,
// and per-tenant admitted/rejected counts. All methods run in engine context
// and are no-ops on the nil table of an untenanted run (every arrival is
// tenant 0 and within quota).
type tenantTable struct {
	specs  []TenantSpec
	cum    []float64 // cumulative weights for Draw
	tokens []float64
	last   []sim.Time
	counts []TenantCount
}

// newTenantTable builds the runtime table (nil for an empty spec set).
func newTenantTable(specs []TenantSpec) *tenantTable {
	if len(specs) == 0 {
		return nil
	}
	t := &tenantTable{
		specs:  specs,
		cum:    make([]float64, len(specs)),
		tokens: make([]float64, len(specs)),
		last:   make([]sim.Time, len(specs)),
		counts: make([]TenantCount, len(specs)),
	}
	var total float64
	for i, s := range specs {
		total += s.Weight
		t.cum[i] = total
		t.counts[i].Name = s.Name
		t.tokens[i] = t.burst(i) // buckets start full
	}
	return t
}

// burst is tenant i's effective bucket depth.
func (t *tenantTable) burst(i int) float64 {
	s := t.specs[i]
	if s.Rate <= 0 {
		return 0
	}
	if s.Burst > 0 {
		return s.Burst
	}
	b := s.Rate / 100
	if b < 1 {
		b = 1
	}
	return b
}

// Name returns tenant id's name.
func (t *tenantTable) Name(id int) string { return t.specs[id].Name }

// Draw samples a tenant id proportionally to the spec weights (0, drawing
// nothing, when untenanted).
func (t *tenantTable) Draw(r *rng.RNG) int {
	if t == nil {
		return 0
	}
	u := r.Float64() * t.cum[len(t.cum)-1]
	for i, c := range t.cum {
		if u < c {
			return i
		}
	}
	return len(t.cum) - 1
}

// TakeToken charges one request against tenant id's quota at virtual time
// now, reporting whether the quota admits it. Tenants without a Rate always
// pass. The bucket refills continuously at Rate up to Burst.
func (t *tenantTable) TakeToken(id int, now sim.Time) bool {
	if t == nil {
		return true
	}
	s := t.specs[id]
	if s.Rate <= 0 {
		return true
	}
	if now > t.last[id] {
		t.tokens[id] += float64(now-t.last[id]) * s.Rate
		if max := t.burst(id); t.tokens[id] > max {
			t.tokens[id] = max
		}
		t.last[id] = now
	}
	if t.tokens[id] < 1 {
		return false
	}
	t.tokens[id]--
	return true
}

// Accept records an admitted request for tenant id.
func (t *tenantTable) Accept(id int) {
	if t != nil {
		t.counts[id].Admitted++
	}
}

// Reject records a rejected request (quota or shed) for tenant id.
func (t *tenantTable) Reject(id int) {
	if t != nil {
		t.counts[id].Rejected++
	}
}

// Counts returns a copy of the per-tenant outcome totals.
func (t *tenantTable) Counts() []TenantCount {
	if t == nil {
		return nil
	}
	return append([]TenantCount(nil), t.counts...)
}
