package serve

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/train"
)

// Report summarises one serving run. All quantities are deterministic
// functions of the Config (same seed → bitwise-identical report, including
// every per-request latency in Requests).
type Report struct {
	// Makespan is the virtual time at which the last round drained.
	Makespan sim.Time
	// Offered is the configured arrival rate (req/s); Throughput the
	// completed-request rate over the makespan.
	Offered    float64
	Throughput float64

	// Admission is what arrived and was shed, per tenant, and the goodput
	// (Arrived, Shed, ShedRate, QuotaRejected, Tenants, Goodput, SLO).
	Admission
	Completed int
	Rounds    int
	// MeanBatch is the mean number of requests per round per GPU slot that
	// carried at least one request.
	MeanBatch float64

	// Latency is the fleet-wide end-to-end latency distribution (seconds).
	Latency *metrics.Histogram

	// Counters is the substrate's whole-run snapshot of the shared counter
	// set — wire per class, feature-read tiers and cache adaptation,
	// out-of-core store, codecs, and the strategy's exchange (PushWire;
	// under p3 the tier counts stay zero because every read lands in the
	// local dimension slice). Counters.Render fills the run report's
	// sections from it.
	train.Counters
	// Tiers is the tier counts (CacheLocal/CachePeer/CacheHost again, as
	// the cache.Tiers value benchmark/ reads).
	Tiers cache.Tiers
	// ExpectedHitRate is the popularity-weighted fraction of reads the GPU
	// caches should serve under this workload's phase-0 popularity
	// (featstore.CachedFraction).
	ExpectedHitRate float64

	// Strategy names the execution strategy ("dsp" unless Config.Strategy
	// picked another).
	Strategy string

	// Requests holds every completed request sorted by ID — the per-request
	// latency trace used by the determinism tests.
	Requests []*Request

	// Killed marks a whole-server crash (router fleet fault): the fleet died
	// at KilledAt, its undispatched requests were handed back for re-routing
	// and its dispatched ones are in Lost.
	Killed   bool
	KilledAt sim.Time

	// Degraded-mode accounting (empty for fault-free runs).
	//
	// DeadGPUs lists GPUs that crashed mid-run. Rerouted counts requests
	// redirected away from a dead owner (both admitted-then-rescued and
	// arrivals after the crash). Lost counts requests that were dispatched to
	// a GPU that died before completing them — admitted but never answered.
	DeadGPUs   []int
	Rerouted   int
	Lost       int
	Recoveries []Recovery
}

// Recovery records one crash the serving fleet absorbed. MTTR is the
// degraded-mode recovery time: from the crash instant until the fleet next
// completed a request (-1 if it never did).
type Recovery struct {
	GPU  int
	At   sim.Time
	MTTR sim.Time
}

func (s *Server) report(end sim.Time) *Report {
	r := &Report{
		Makespan:        end,
		Offered:         s.cfg.Rate,
		Admission:       *s.adm,
		Completed:       len(s.completed),
		Rounds:          s.nextRound,
		Latency:         metrics.New(),
		Counters:        s.sub.Counters(),
		Tiers:           s.sub.Cache.Stats().Tiers,
		ExpectedHitRate: s.ExpectedCacheHitRate(),
		Strategy:        string(s.sub.Strategy.Kind()),
		Requests:        s.completed,
		Killed:          s.dead,
		KilledAt:        s.killedAt,
	}
	if s.intake != nil {
		r.Admission = s.intake.Totals()
	}
	r.Goodput = s.goodput
	for _, h := range s.latency {
		r.Latency.Merge(h)
	}
	if end > 0 {
		r.Throughput = float64(len(s.completed)) / float64(end)
	}
	if s.nextRound > 0 {
		r.MeanBatch = float64(s.batchSum) / float64(s.nextRound*len(s.latency))
	}
	sort.Slice(r.Requests, func(i, j int) bool { return r.Requests[i].ID < r.Requests[j].ID })
	if s.view != nil || s.dead {
		if s.view != nil {
			r.DeadGPUs = s.view.Dead()
		}
		r.Rerouted = s.rerouted
		r.Lost = int(s.batchSum) - len(s.completed)
		r.Recoveries = append([]Recovery(nil), s.crashes...)
		for i := range r.Recoveries {
			r.Recoveries[i].MTTR = -1
			for _, req := range r.Requests {
				if req.Done > r.Recoveries[i].At &&
					(r.Recoveries[i].MTTR < 0 || req.Done-r.Recoveries[i].At < r.Recoveries[i].MTTR) {
					r.Recoveries[i].MTTR = req.Done - r.Recoveries[i].At
				}
			}
		}
	}
	return r
}

// String renders the operator-facing summary: the shared run-report text
// (prof.RunReport.Summary) of r's own sections.
func (r *Report) String() string { return r.RunReport().Summary() }
