package bench

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/train"
)

// routerPolicies is the dispatch-policy grid of the router sweep.
var routerPolicies = []fleet.Policy{
	fleet.RoundRobin, fleet.LeastLoaded, fleet.LatencyAware, fleet.ShardAffinity,
}

// routerFleetCounts is the replica-count grid.
var routerFleetCounts = []int{2, 3}

// routerSLO is the sweep's latency objective (goodput accounting).
const routerSLO = 10e-3

// RouterSweep maps the routing-policy x fleet-count frontier for replicated
// serving under drifting popularity with a persistent straggler: fleet 0's
// GPU 0 stalls periodically, so policies that sense load (least-loaded) or
// latency (latency-aware) divert traffic around it while round-robin keeps
// feeding the slow replica and pays for it at the tail. Reported per cell:
// routed p99 and the within-SLO goodput rate.
func RouterSweep(cfg RunConfig) (*Table, error) {
	cols := make([]string, 0, 2*len(routerFleetCounts))
	for _, n := range routerFleetCounts {
		cols = append(cols, fmt.Sprintf("%d-fleet p99", n), fmt.Sprintf("%d-fleet good/s", n))
	}
	rows := make([]string, len(routerPolicies))
	for i, p := range routerPolicies {
		rows[i] = p.String()
	}
	t := NewTable("Fleet router: policy frontier under drift with a straggler fleet (2 GPUs/fleet)", "ms | req/s", rows, cols)

	td := prepared("products", 2, cfg.Shrink, false, true)
	for _, pol := range routerPolicies {
		for _, n := range routerFleetCounts {
			rep, err := runRouterCell(td, pol, n)
			if err != nil {
				return nil, err
			}
			t.Set(pol.String(), fmt.Sprintf("%d-fleet p99", n), 1e3*rep.Latency.P99())
			t.Set(pol.String(), fmt.Sprintf("%d-fleet good/s", n), rep.Goodput.Rate())
		}
	}
	t.Notes = append(t.Notes,
		"fleet0/gpu0 stalls for 120 ms at t=0.2s and t=0.5s (straggler); popularity drifts every 100 ms",
		fmt.Sprintf("goodput counts completions within the %.0f ms SLO per virtual second", 1e3*routerSLO),
		"load-aware policies route around the straggler; round-robin keeps feeding it")
	return t, nil
}

// runRouterCell runs one (policy, fleet-count) cell of the sweep.
func runRouterCell(td *train.Data, pol fleet.Policy, fleets int) (*fleet.Report, error) {
	const horizon = 0.8
	// The straggler: fleet 0's first GPU stalls for two long 120 ms windows,
	// so replica 0 goes dark for 30% of the run. Scoped faults ride each
	// fleet's own injector, so only replica 0 degrades. Blind policies keep
	// queueing behind it for the whole stall; load-aware ones only leak the
	// requests in flight when the stall lands, then divert.
	var ffs []fault.FleetFault
	for _, at := range []sim.Time{0.2, 0.5} {
		ffs = append(ffs, fault.FleetFault{
			Fleet: 0,
			Fault: fault.Fault{Kind: fault.Stall, GPU: 0, At: at, Duration: 120e-3},
		})
	}
	sc := serveConfig(td, serve.BatchDynamic, 6000)
	sc.Duration = horizon
	sc.SLO = routerSLO
	// Deep queues so blind policies really pay for feeding the straggler
	// instead of being bailed out by admission backpressure.
	sc.QueueDepth = 512
	sc.DriftEvery = 0.1
	r, err := fleet.NewRouter(fleet.Config{
		Serve:  sc,
		Fleets: fleets,
		Policy: pol,
		Faults: ffs,
	})
	if err != nil {
		return nil, err
	}
	return r.Run()
}
