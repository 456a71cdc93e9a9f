package serve

import (
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Admission is a serving run's admission outcome — what arrived and what was
// turned away, per tenant, and the within-SLO goodput of what completed.
// serve.Report and fleet.Report both embed it.
type Admission struct {
	Arrived int
	// Shed counts arrivals turned away by admission control: a full queue, a
	// tenant quota, no routable fleet, a dead GPU's or fleet's queued requests
	// that nothing could take.
	Shed int
	// QuotaRejected counts arrivals turned away by per-tenant token buckets
	// (a subset of Shed).
	QuotaRejected int
	// Tenants is the per-tenant admission outcome (empty without
	// Config.Tenants). Admitted+Rejected summed over tenants equals Arrived.
	Tenants []TenantCount
	// Goodput is the windowed within-SLO completion counter (nil without
	// Config.SLO).
	Goodput *metrics.Goodput
}

// ShedRate is the fraction of arrivals rejected by admission control.
func (a Admission) ShedRate() float64 {
	if a.Arrived == 0 {
		return 0
	}
	return float64(a.Shed) / float64(a.Arrived)
}

// RenderServing fills the admission fields of a run report's serving section.
func (a Admission) RenderServing(sv *prof.ServingReport) {
	sv.Arrived, sv.Shed, sv.ShedRate = a.Arrived, a.Shed, a.ShedRate()
	sv.QuotaRejected = a.QuotaRejected
	sv.Goodput = prof.GoodputFrom(a.Goodput)
	for _, tc := range a.Tenants {
		sv.Tenants = append(sv.Tenants, prof.TenantReport{
			Name: tc.Name, Admitted: tc.Admitted, Rejected: tc.Rejected,
		})
	}
}

// Intake is the one arrival process of a serving run: Poisson gaps at
// Config.Rate until Config.Duration, each arrival's node drawn from the
// (drifting) popularity model and its tenant charged against its token
// bucket. A stand-alone Server runs it into its own admission queues; a fleet
// router runs it into route-then-Admit. It keeps the run's admission totals.
type Intake struct {
	Admission
	cfg     Config
	pop     *Workload
	tenants *tenantTable
	nextID  int
}

// NewIntake builds the arrival process cfg describes (cfg.Data must be set).
func NewIntake(cfg Config) *Intake {
	return &Intake{
		cfg:     cfg,
		pop:     NewWorkload(cfg.Data, cfg.Skew, cfg.DriftEvery, cfg.Seed),
		tenants: newTenantTable(cfg.Tenants),
	}
}

// Totals returns the admission totals so far, per-tenant counts included
// (Goodput is left to the caller, which owns the completions).
func (in *Intake) Totals() Admission {
	a := in.Admission
	a.Tenants = in.tenants.Counts()
	return a
}

// Run generates arrivals until the horizon. An arrival within its tenant's
// quota is offered to admit under the next request id; one that admit turns
// down is counted as shed here (admit does its own trace and telemetry).
func (in *Intake) Run(p *sim.Proc, admit func(now sim.Time, id int, node graph.NodeID, tenant int) bool) {
	cfg := in.cfg
	r := rng.New(rng.Mix(cfg.Seed, 0xA221A1))
	// Tenant assignment draws from its own stream so configuring tenants
	// perturbs neither arrival timing nor node popularity.
	tr := rng.New(rng.Mix(cfg.Seed, 0x7E4A47))
	for {
		p.Sleep(sim.Time(r.Exp(cfg.Rate)))
		now := p.Now()
		if now >= cfg.Duration {
			return
		}
		node := in.pop.Draw(r, now)
		tenant := in.tenants.Draw(tr)
		in.Arrived++
		if !in.tenants.TakeToken(tenant, now) {
			// Quota rejection: admission control turned the request away
			// before it reached any queue.
			in.Shed++
			cfg.Telemetry.ObserveShed(now)
			in.QuotaRejected++
			in.tenants.Reject(tenant)
			if cfg.Tracer.Enabled() {
				cfg.Tracer.Instant("quota-reject", "serve", cfg.Data.NumGPUs(), 0, float64(now), "t",
					map[string]string{"tenant": in.tenants.Name(tenant)})
			}
			continue
		}
		if !admit(now, in.nextID, node, tenant) {
			in.Shed++
			in.tenants.Reject(tenant)
			continue
		}
		in.nextID++
		in.tenants.Accept(tenant)
	}
}
