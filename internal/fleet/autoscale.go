package fleet

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// State is one fleet's position in the autoscaler lifecycle.
type State int

const (
	// Active fleets receive routed traffic.
	Active State = iota
	// Draining fleets receive no new traffic but still complete what they
	// hold; once empty they park as Standby.
	Draining
	// Standby fleets are built and idle — scale-up headroom.
	Standby
	// Dead fleets were killed by a whole-fleet fault and never return.
	Dead
)

func (s State) String() string {
	switch s {
	case Draining:
		return "draining"
	case Standby:
		return "standby"
	case Dead:
		return "dead"
	default:
		return "active"
	}
}

// Autoscale configures SLO-band fleet autoscaling. The zero value disables
// it (the fleet set is static).
type Autoscale struct {
	// Min and Max bound the active-fleet count. Autoscaling is enabled when
	// Max > 0; Min defaults to 1.
	Min, Max int
	// Period is the evaluation interval (default 25 ms).
	Period sim.Time
	// Up activates a standby fleet when the window p99 of routed traffic
	// exceeds it (default: the SLO). Down drains the highest-id active fleet
	// when window p99 stays below it (default: Up/4).
	Up, Down sim.Time
}

func (a Autoscale) enabled() bool { return a.Max > 0 }

func (a Autoscale) withDefaults(slo sim.Time) Autoscale {
	if !a.enabled() {
		return a
	}
	if a.Min <= 0 {
		a.Min = 1
	}
	if a.Period <= 0 {
		a.Period = 25e-3
	}
	if a.Up <= 0 {
		if slo > 0 {
			a.Up = slo
		} else {
			a.Up = 5e-3
		}
	}
	if a.Down <= 0 {
		a.Down = a.Up / 4
	}
	return a
}

// ScaleEvent records one autoscaler action.
type ScaleEvent struct {
	At     sim.Time
	Action string // up | drain | standby
	Fleet  int
	// P99 is the window p99 that triggered the action (seconds; 0 for the
	// drain→standby transition, which is emptiness- not latency-driven).
	P99 sim.Time
	// Reason is "burn-rate" when a firing page alert forced the action
	// ahead of the p99 bands; empty for band-driven actions.
	Reason string
}

// autoscaler is the periodic scaling daemon: each period it merges the
// per-fleet latency windows into the routed-traffic p99, crosses it against
// the SLO bands, and moves at most one fleet per period between states —
// single-step scaling damps oscillation the same way production autoscalers
// use cooldowns. It also completes drains (an empty Draining fleet parks as
// Standby) and finally resets the windows.
func (r *Router) autoscaler(p *sim.Proc) {
	as := r.cfg.Autoscale
	for {
		p.Sleep(as.Period)
		p99 := r.windowP99()
		// A firing page-severity burn-rate alert overrides the p99 bands:
		// it forces a scale-up even when the completion window looks fine
		// (sheds burn the error budget without completing), and it vetoes
		// drains until the budget stops burning.
		burning := r.hub().PageFiring()
		switch {
		case burning && r.countState(Active) < as.Max:
			if f := r.firstState(Standby); f >= 0 {
				r.state[f] = Active
				r.scale = append(r.scale, ScaleEvent{
					At: p.Now(), Action: "up", Fleet: f, P99: p99, Reason: "burn-rate",
				})
			}
		case p99 > sim.Time(0) && p99 > as.Up && r.countState(Active) < as.Max:
			// Saturated: bring one standby fleet into rotation.
			if f := r.firstState(Standby); f >= 0 {
				r.state[f] = Active
				r.scale = append(r.scale, ScaleEvent{At: p.Now(), Action: "up", Fleet: f, P99: p99})
			}
		case p99 > sim.Time(0) && p99 < as.Down && !burning && r.countState(Active) > as.Min:
			// Comfortably under SLO: drain the highest-id active fleet.
			if f := r.lastState(Active); f >= 0 {
				r.state[f] = Draining
				r.scale = append(r.scale, ScaleEvent{At: p.Now(), Action: "drain", Fleet: f, P99: p99})
			}
		}
		for f, st := range r.state {
			if st == Draining && r.servers[f].Outstanding() == 0 {
				r.state[f] = Standby
				r.scale = append(r.scale, ScaleEvent{At: p.Now(), Action: "standby", Fleet: f})
			}
		}
		r.resetWindows()
	}
}

// windowP99 is the p99 of all completions routed anywhere during the current
// window (0 when the window saw none).
func (r *Router) windowP99() sim.Time {
	m := metrics.New()
	for _, h := range r.win {
		m.Merge(h)
	}
	if m.Count() == 0 {
		return 0
	}
	return sim.Time(m.P99())
}

func (r *Router) resetWindows() {
	for f := range r.win {
		r.win[f] = metrics.New()
	}
}

func (r *Router) countState(s State) int {
	n := 0
	for _, st := range r.state {
		if st == s {
			n++
		}
	}
	return n
}

// firstState returns the lowest fleet id in state s, or -1.
func (r *Router) firstState(s State) int {
	for f, st := range r.state {
		if st == s {
			return f
		}
	}
	return -1
}

// lastState returns the highest fleet id in state s, or -1.
func (r *Router) lastState(s State) int {
	for f := len(r.state) - 1; f >= 0; f-- {
		if r.state[f] == s {
			return f
		}
	}
	return -1
}
