// Package fleet is the replicated-serving router: N independent serve.Server
// fleets (each a full replica of the model and feature cache on its own
// simulated machine) share one virtual clock, and a router in front of them
// admits a single Poisson workload, applies per-tenant token-bucket quotas,
// and dispatches each request to a fleet under a pluggable routing policy.
// An optional autoscaler moves fleets between active/draining/standby as the
// routed p99 crosses SLO bands, and whole-fleet crash faults drain a replica
// mid-run with its traffic re-routed to the survivors.
//
// Everything is deterministic: one serve.Intake keyed by the router seed
// draws every arrival, per-fleet seeds derived from it drive each replica's
// rounds and model, and the whole run is a pure function of the Config.
package fleet

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config describes one routed serving run. Serve is the per-fleet template:
// its Data/Rate/Duration/Skew/DriftEvery/Tenants describe the router's single
// arrival process, and its SLO is kept per fleet and merged. Faults are the
// router's (Config.Faults); setting them, or a Tracer, on the template is an
// error.
type Config struct {
	Serve serve.Config
	// Fleets is the initially active replica count (required, >= 1).
	Fleets int
	// Policy selects the dispatch rule.
	Policy Policy
	// Autoscale, when enabled, bounds the active set and scales it against
	// the SLO bands. Standby headroom beyond Fleets is built up front (the
	// simulation has no provisioning delay; production would warm instances).
	Autoscale Autoscale
	// Faults is the fleet-scoped schedule: whole-fleet crashes handled by the
	// router plus GPU/link faults handed to each fleet's own injector.
	Faults []fault.FleetFault
}

func (c Config) validate() (Config, error) {
	if c.Fleets < 1 {
		return c, fmt.Errorf("fleet: Config.Fleets must be >= 1")
	}
	if c.Serve.Data == nil {
		return c, fmt.Errorf("fleet: Config.Serve.Data is required")
	}
	if len(c.Serve.Faults) > 0 {
		return c, fmt.Errorf("fleet: Serve template must leave Faults to the router (Config.Faults)")
	}
	// Per-request tracing across N fleets would interleave pids; the router
	// reports aggregates instead.
	if c.Serve.Tracer != nil {
		return c, fmt.Errorf("fleet: Serve template must leave Tracer nil (-trace is not supported with a fleet router)")
	}
	c.Autoscale = c.Autoscale.withDefaults(c.Serve.SLO)
	if c.Autoscale.enabled() {
		if c.Autoscale.Max < c.Fleets {
			return c, fmt.Errorf("fleet: Autoscale.Max %d below initial fleet count %d", c.Autoscale.Max, c.Fleets)
		}
		if c.Autoscale.Min > c.Fleets {
			return c, fmt.Errorf("fleet: Autoscale.Min %d above initial fleet count %d", c.Autoscale.Min, c.Fleets)
		}
	}
	return c, nil
}

// maxFleets is the number of replicas to build (active plus standby headroom).
func (c Config) maxFleets() int {
	if c.Autoscale.enabled() && c.Autoscale.Max > c.Fleets {
		return c.Autoscale.Max
	}
	return c.Fleets
}

// Router owns the shared engine, the replica set and all routing state.
// Build with NewRouter, execute with Run; a Router is single-use.
type Router struct {
	cfg     Config
	eng     *sim.Engine
	servers []*serve.Server
	state   []State
	view    *fault.View // fleet-level membership (whole-fleet crashes)
	whole   []fault.FleetFault
	// in is the run's one arrival process and its admission totals.
	in *serve.Intake

	// win is the per-fleet latency window feeding the latency-aware policy
	// and the autoscaler; reset every Autoscale.Period.
	win []*metrics.Histogram

	// routing state and accounting
	rr       int
	scratch  []int // routable() scratch buffer
	rerouted int   // requests rescued from dying fleets
	routed   []int
	rescued  []int // per-fleet: orphans rescued FROM it at its death
	scale    []ScaleEvent
}

// hub is the shared telemetry hub from the serve template (nil disables all
// instrumentation; every hub method is nil-safe).
func (r *Router) hub() *telemetry.Hub { return r.cfg.Serve.Telemetry }

// NewRouter builds the shared engine, the arrival process, all replicas
// (derived seeds, scoped fault schedules) and the router state.
func NewRouter(cfg Config) (*Router, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	n := cfg.maxFleets()
	eng := sim.NewEngine()
	eng.SetParallelism(cfg.Serve.Parallel)
	r := &Router{
		cfg:     cfg,
		eng:     eng,
		state:   make([]State, n),
		view:    fault.NewView(n),
		win:     make([]*metrics.Histogram, n),
		routed:  make([]int, n),
		rescued: make([]int, n),
		// Keyed by the router seed (distinct from every derived fleet seed).
		in: serve.NewIntake(cfg.Serve),
	}
	whole, scoped := fault.SplitFleet(cfg.Faults, n)
	r.whole = whole
	for f := 0; f < n; f++ {
		f := f
		scfg := cfg.Serve
		// Independent seed stream per replica: each fleet's round seeds and
		// model init are its own.
		scfg.Seed = rng.Mix(cfg.Serve.Seed, 0xF1EE7, uint64(f))
		scfg.Faults = scoped[f]
		srv, err := serve.NewReplica(scfg, eng, fmt.Sprintf("fleet%d", f), r.in,
			func(req *serve.Request) { r.onComplete(f, req) })
		if err != nil {
			return nil, fmt.Errorf("fleet %d: %w", f, err)
		}
		r.servers = append(r.servers, srv)
		r.win[f] = metrics.New()
		if f >= cfg.Fleets {
			r.state[f] = Standby
		}
	}
	if hub := r.hub(); hub.Enabled() {
		// Router-level sources on top of each replica's own series (the
		// replicas registered theirs under fleetN/ prefixes in NewReplica).
		hub.Gauge("router/active_fleets", func(sim.Time) float64 {
			return float64(r.countState(Active))
		})
		hub.Counter("router/shed", func(sim.Time) float64 {
			return float64(r.in.Shed)
		})
		hub.Counter("router/rerouted", func(sim.Time) float64 {
			return float64(r.rerouted)
		})
	}
	return r, nil
}

// Servers exposes the replica set (tests inspect per-fleet state).
func (r *Router) Servers() []*serve.Server { return r.servers }

// onComplete runs in engine context at each completion: it feeds the latency
// window the router's policies read.
func (r *Router) onComplete(f int, req *serve.Request) {
	r.win[f].Observe(float64(req.Latency()))
}

// Run executes the routed serving simulation to completion.
func (r *Router) Run() (*Report, error) {
	for _, s := range r.servers {
		s.Start()
	}
	r.eng.Go("router/generator", func(p *sim.Proc) {
		r.in.Run(p, r.admit)
		for _, s := range r.servers {
			s.CloseIntake()
		}
	})
	for _, ff := range r.whole {
		ff := ff
		// Non-daemon: the crash must fire even if traffic quiesces first.
		r.eng.Go(fmt.Sprintf("router/fault-fleet%d", ff.Fleet), func(p *sim.Proc) {
			p.Sleep(ff.Fault.At)
			r.killFleet(p, ff.Fleet)
		})
	}
	if r.cfg.Autoscale.enabled() {
		r.eng.GoDaemon("router/autoscale", r.autoscaler)
	} else if r.cfg.Policy == LatencyAware {
		// The latency-aware score reads the same windows the autoscaler
		// resets; without it, a lightweight resetter keeps them recent.
		r.eng.GoDaemon("router/window", func(p *sim.Proc) {
			for {
				p.Sleep(Autoscale{Max: 1}.withDefaults(0).Period)
				r.resetWindows()
			}
		})
	}
	end, err := r.eng.Run()
	if err != nil {
		return nil, err
	}
	return r.report(end)
}

// admit routes one arrival the intake let through its quota to the policy's
// fleet, reporting false when no active fleet can take it.
func (r *Router) admit(now sim.Time, id int, node graph.NodeID, tenant int) bool {
	f := r.route(node)
	if f < 0 {
		// No routable fleet: the router sheds before any server sees the
		// request (a server-side Admit failure feeds the hub itself).
		r.hub().ObserveShed(now)
		return false
	}
	if !r.servers[f].Admit(now, id, node, tenant) {
		return false
	}
	r.routed[f]++
	return true
}

// killFleet applies a whole-fleet crash: the replica's processes die at this
// instant, its admission-queued requests are rescued onto surviving fleets
// (dispatched ones are lost with it), and it leaves the routable set for good.
func (r *Router) killFleet(p *sim.Proc, f int) {
	if r.state[f] == Dead {
		return
	}
	r.state[f] = Dead
	r.view.Kill(f)
	r.hub().RecordEvent(p.Now(), "router/fleet-killed",
		fmt.Sprintf("fleet%d crashed; rescuing admission-queued requests", f))
	orphans := r.servers[f].Shutdown(p)
	for _, o := range orphans {
		t := r.route(o.Node)
		if t >= 0 && r.servers[t].Admit(p.Now(), o.ID, o.Node, o.Tenant) {
			r.rerouted++
			r.rescued[f]++
			r.routed[t]++
			continue
		}
		// No survivor can take it: it dies with the fleet.
		r.in.Shed++
		if t < 0 {
			r.hub().ObserveShed(p.Now())
		}
	}
}
