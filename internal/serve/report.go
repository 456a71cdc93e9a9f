package serve

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/train"
)

// Report summarises one serving run. All quantities are deterministic
// functions of the Config (same seed → bitwise-identical report, including
// every per-request latency in Requests).
type Report struct {
	// Horizon is the configured arrival window; Makespan the virtual time
	// at which the last round drained.
	Horizon  sim.Time
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
		Horizon:         s.cfg.Duration,
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
	r.Goodput, r.SLO = s.goodput, s.cfg.SLO
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

// String renders the operator-facing summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon %.2fs  makespan %.2fs  offered %.0f req/s\n",
		float64(r.Horizon), float64(r.Makespan), r.Offered)
	fmt.Fprintf(&b, "arrived %d  completed %d  shed %d (%.1f%%)  rounds %d  mean batch %.1f\n",
		r.Arrived, r.Completed, r.Shed, 100*r.ShedRate(), r.Rounds, r.MeanBatch)
	fmt.Fprintf(&b, "throughput %.0f req/s\n", r.Throughput)
	fmt.Fprintf(&b, "latency  p50 %.3fms  p95 %.3fms  p99 %.3fms  mean %.3fms  max %.3fms\n",
		1e3*r.Latency.P50(), 1e3*r.Latency.P95(), 1e3*r.Latency.P99(),
		1e3*r.Latency.Mean(), 1e3*r.Latency.Max())
	fmt.Fprintf(&b, "feature reads  local %d  nvlink %d  host %d  (gpu-cache hit %.1f%%, expected %.1f%%)",
		r.CacheLocal, r.CachePeer, r.CacheHost, 100*r.CacheHitRate(), 100*r.ExpectedHitRate)
	b.WriteString(r.Summary())
	if r.CachePolicy != cache.Static {
		fmt.Fprintf(&b, "\ncache %s  rebalances %d  promoted %d rows  migrated %.2f MB  overhead %.3fms",
			r.CachePolicy, r.Rebalances, r.CachePromoted,
			float64(r.RebalanceBytes)/1e6, 1e3*float64(r.RebalanceTime))
	}
	if sec := r.Layout; sec != nil {
		fmt.Fprintf(&b, "\nstrategy %s  slices %v  push %.2f MB",
			sec.Name, sec.SliceDims, float64(r.PushWire)/1e6)
	}
	if r.StoreHits+r.StoreMisses > 0 {
		fmt.Fprintf(&b, "\nooc store  hit %.1f%%  demand %.2f MB  prefetch acc %.1f%%  stall %.3fms",
			100*r.StoreHitRate(), float64(r.StoreDemandBytes)/1e6,
			100*r.PrefetchAccuracy(), 1e3*float64(r.StoreStall))
	}
	if r.Killed {
		fmt.Fprintf(&b, "\nfleet killed at %.3fs  lost %d", float64(r.KilledAt), r.Lost)
	}
	if len(r.Recoveries) > 0 {
		fmt.Fprintf(&b, "\ndegraded  dead gpus %v  rerouted %d  lost %d", r.DeadGPUs, r.Rerouted, r.Lost)
		for _, rec := range r.Recoveries {
			fmt.Fprintf(&b, "\n  crash gpu%d at %.3fs  mttr %.3fms", rec.GPU, float64(rec.At), 1e3*rec.MTTR)
		}
	}
	return b.String()
}
