package fleet

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/train"
)

// Report summarises one routed run: router-level admission and dispatch
// outcomes plus every replica's own serve.Report. Deterministic: same Config
// → bitwise-identical report.
type Report struct {
	Policy   Policy
	Makespan sim.Time
	Offered  float64
	// Throughput is completions across all fleets over the makespan.
	Throughput float64

	// Admission is the router's admission accounting; Goodput merges every
	// fleet's (nil without an SLO). Arrived = Completed() + Shed + Lost():
	// every arrival is either turned away at the router (quota, no admitting
	// fleet, un-rescuable orphan — all in Shed), completed by some fleet, or
	// lost inside a crashed fleet's pipeline.
	serve.Admission
	// Rerouted counts requests rescued from dying fleets onto survivors.
	Rerouted int

	// Latency merges every fleet's distribution.
	Latency *metrics.Histogram

	Fleets []FleetStat
	Scale  []ScaleEvent
	// PerFleet holds each replica's full report, indexed by fleet id.
	PerFleet []*serve.Report
}

// FleetStat is one replica's outcome under the router.
type FleetStat struct {
	ID    int
	State State
	// Routed counts requests dispatched here (including rescues routed in);
	// Completed the ones it answered.
	Routed    int
	Completed int
	// Rerouted counts requests rescued FROM this fleet: orphans re-homed at
	// its death plus its own intra-fleet reroutes off dead GPUs. Lost counts
	// dispatched requests it never answered.
	Rerouted int
	Lost     int
	P99      sim.Time
	DeadGPUs []int
}

func (r *Router) report(end sim.Time) (*Report, error) {
	rep := &Report{
		Policy:    r.cfg.Policy,
		Makespan:  end,
		Offered:   r.cfg.Serve.Rate,
		Admission: r.in.Totals(),
		Rerouted:  r.rerouted,
		Latency:   metrics.New(),
		Scale:     append([]ScaleEvent(nil), r.scale...),
	}
	total := 0
	for f, s := range r.servers {
		fr, err := s.Finish(end)
		if err != nil {
			return nil, fmt.Errorf("fleet %d: %w", f, err)
		}
		rep.PerFleet = append(rep.PerFleet, fr)
		rep.Latency.Merge(fr.Latency)
		if fr.Goodput != nil {
			if rep.Goodput == nil {
				rep.Goodput = metrics.NewGoodput(fr.Goodput.Window(), fr.Goodput.SLO())
			}
			rep.Goodput.Merge(fr.Goodput)
		}
		total += fr.Completed
		st := FleetStat{
			ID:        f,
			State:     r.state[f],
			Routed:    r.routed[f],
			Completed: fr.Completed,
			Rerouted:  r.rescued[f] + fr.Rerouted,
			Lost:      fr.Lost,
			DeadGPUs:  append([]int(nil), fr.DeadGPUs...),
		}
		if fr.Latency.Count() > 0 {
			st.P99 = sim.Time(fr.Latency.P99())
		}
		rep.Fleets = append(rep.Fleets, st)
	}
	if end > 0 {
		rep.Throughput = float64(total) / float64(end)
	}
	return rep, nil
}

// Completed sums completions across fleets.
func (r *Report) Completed() int {
	n := 0
	for _, f := range r.Fleets {
		n += f.Completed
	}
	return n
}

// Lost sums dispatched-but-never-answered requests across fleets.
func (r *Report) Lost() int {
	n := 0
	for _, f := range r.Fleets {
		n += f.Lost
	}
	return n
}

// DeadFleets lists fleets killed by whole-fleet faults, ascending.
func (r *Report) DeadFleets() []int {
	var out []int
	for _, f := range r.Fleets {
		if f.State == Dead {
			out = append(out, f.ID)
		}
	}
	return out
}

// RunReport renders the routed run into the canonical dsp-runreport schema:
// merged latency/goodput and aggregate serving scalars at the top level, the
// per-fleet breakdown in the Fleet section. Identity, telemetry and profile
// are the caller's (RunReport.Attach).
func (r *Report) RunReport() *prof.RunReport {
	out := prof.New("dspserve")
	out.System = "DSP"
	out.WallTime = float64(r.Makespan)
	out.Latency = prof.Latency(r.Latency)
	var sum train.Counters
	for _, fr := range r.PerFleet {
		sum.Add(fr.Counters)
	}
	sum.Render(out)
	sv := &prof.ServingReport{
		Offered:    r.Offered,
		Throughput: r.Throughput,
		Completed:  r.Completed(),
		Rerouted:   r.Rerouted,
		Lost:       r.Lost(),
	}
	r.RenderServing(sv)
	var rounds int
	var batch float64
	for _, fr := range r.PerFleet {
		sv.Rounds += fr.Rounds
		rounds += fr.Rounds
		batch += fr.MeanBatch * float64(fr.Rounds)
	}
	if rounds > 0 {
		sv.MeanBatch = batch / float64(rounds)
	}
	out.Serving = sv

	fs := &prof.FleetSection{
		Policy: r.Policy.String(),
		Built:  len(r.Fleets),
	}
	for i, f := range r.Fleets {
		fr := r.PerFleet[i]
		if f.State == Active {
			fs.Active++
		}
		fs.Rerouted += f.Rerouted
		if f.State == Dead {
			fs.DeadFleets = append(fs.DeadFleets, f.ID)
		}
		fs.PerFleet = append(fs.PerFleet, prof.FleetEntry{
			ID:        f.ID,
			State:     f.State.String(),
			Routed:    f.Routed,
			Completed: f.Completed,
			Rerouted:  f.Rerouted,
			Lost:      f.Lost,
			P99:       float64(f.P99),
			Goodput:   prof.GoodputFrom(fr.Goodput),
			DeadGPUs:  append([]int(nil), f.DeadGPUs...),
		})
	}
	for _, e := range r.Scale {
		fs.Scale = append(fs.Scale, prof.ScaleEventReport{
			At: float64(e.At), Action: e.Action, Fleet: e.Fleet, P99: float64(e.P99),
			Reason: e.Reason,
		})
	}
	out.Fleet = fs
	return out
}
