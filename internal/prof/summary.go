package prof

import (
	"fmt"
	"sort"
	"strings"
)

// Summary renders the report's sections as operator text: what dspserve
// prints after a run and what dspprof summary prints for a report file.
// The profile block is Profile.Summary.
func (r *RunReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s run: %s", r.Command, r.System)
	if r.Dataset != "" {
		fmt.Fprintf(&b, " on %s, %d GPUs, seed %d", r.Dataset, r.GPUs, r.Seed)
	}
	fmt.Fprintf(&b, "\nwall time %.6gs\n", r.WallTime)
	if len(r.Stages) > 0 {
		keys := make([]string, 0, len(r.Stages))
		for k := range r.Stages {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("stage time ")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s %.4gs", k, r.Stages[k])
		}
		b.WriteString("\n")
	}
	if l := r.Latency; l != nil {
		fmt.Fprintf(&b, "latency p50 %.4gms  p95 %.4gms  p99 %.4gms  mean %.4gms  max %.4gms (n=%d)\n",
			1e3*l.P50, 1e3*l.P95, 1e3*l.P99, 1e3*l.Mean, 1e3*l.Max, l.Count)
	}
	if c := r.Cache; c != nil {
		fmt.Fprintf(&b, "cache hit %.1f%% (local %d, peer %d, host %d)\n",
			100*c.HitRate, c.Local, c.Peer, c.Host)
		if c.Rebalances > 0 {
			fmt.Fprintf(&b, "cache %s: rebalances %d  promoted %d rows  migrated %.2f MB  overhead %.4gms\n",
				c.Policy, c.Rebalances, c.Promoted, float64(c.MovedBytes)/1e6, 1e3*c.RebalanceTime)
		}
	}
	if s := r.Strategy; s != nil {
		fmt.Fprintf(&b, "strategy %s: feature dim %d, slices %v\n", s.Name, s.FeatureDim, s.SliceDims)
		fmt.Fprintf(&b, "strategy %s: push %.2f MB  pull %.2f MB  partial %.3g flops  reduce %.2f MB  sharded params %d\n",
			s.Name, float64(s.PushBytes)/1e6, float64(s.PullBytes)/1e6,
			float64(s.PartialFlops), float64(s.ReduceBytes)/1e6, s.ShardedParams)
	}
	if s := r.Store; s != nil {
		comp := ""
		if s.Compressed {
			comp = ", compressed topology"
		}
		fmt.Fprintf(&b, "ooc store: %d blocks (%d topo%s), %.2f MB over a %.2f MB cache\n",
			s.Blocks, s.TopoBlocks, comp,
			float64(s.BlockBytes)/1e6, float64(s.CacheBytes)/1e6)
		fmt.Fprintf(&b, "ooc store: hit %.1f%% (%d/%d)  demand %.2f MB  stall %.4gs\n",
			100*s.HitRate, s.Hits, s.Hits+s.Misses, float64(s.DemandBytes)/1e6, s.StallTime)
		if s.PrefetchIssued > 0 {
			fmt.Fprintf(&b, "ooc store: prefetch %d issued, %d used (%.1f%% accuracy), %.2f MB\n",
				s.PrefetchIssued, s.PrefetchUsed, 100*s.PrefetchAccuracy,
				float64(s.PrefetchBytes)/1e6)
		}
	}
	if sv := r.Serving; sv != nil {
		fmt.Fprintf(&b, "serving: offered %.0f req/s  arrived %d  completed %d  shed %d  mean batch %.1f",
			sv.Offered, sv.Arrived, sv.Completed, sv.Shed, sv.MeanBatch)
		if sv.ExpectedHitRate > 0 {
			fmt.Fprintf(&b, "  expected cache hit %.1f%%", 100*sv.ExpectedHitRate)
		}
		fmt.Fprintf(&b, "\nserving: throughput %.0f req/s  shed %.1f%%  rounds %d\n",
			sv.Throughput, 100*sv.ShedRate, sv.Rounds)
		if g := sv.Goodput; g != nil {
			fmt.Fprintf(&b, "goodput: %d/%d within %.4gms SLO (%.1f%%)  %.0f good req/s\n",
				g.Good, g.Total, 1e3*g.SLO, 100*g.Fraction, g.Rate)
		}
		for _, tc := range sv.Tenants {
			fmt.Fprintf(&b, "tenant %-10s admitted %d  rejected %d\n", tc.Name, tc.Admitted, tc.Rejected)
		}
		if len(sv.DeadGPUs) > 0 || sv.Rerouted > 0 || sv.Lost > 0 {
			fmt.Fprintf(&b, "degraded: rerouted %d  lost %d", sv.Rerouted, sv.Lost)
			if len(sv.DeadGPUs) > 0 {
				fmt.Fprintf(&b, "  dead gpus %v", sv.DeadGPUs)
			}
			b.WriteString("\n")
		}
	}
	if f := r.Fleet; f != nil {
		fmt.Fprintf(&b, "fleet router: %s policy, %d built, %d active at end, %d rerouted\n",
			f.Policy, f.Built, f.Active, f.Rerouted)
		if len(f.DeadFleets) > 0 {
			fmt.Fprintf(&b, "dead fleets: %v\n", f.DeadFleets)
		}
		for _, e := range f.PerFleet {
			fmt.Fprintf(&b, "  fleet%d %-8s routed %-6d completed %-6d p99 %.4gms",
				e.ID, e.State, e.Routed, e.Completed, 1e3*e.P99)
			if e.Rerouted > 0 || e.Lost > 0 {
				fmt.Fprintf(&b, "  rerouted %d  lost %d", e.Rerouted, e.Lost)
			}
			if len(e.DeadGPUs) > 0 {
				fmt.Fprintf(&b, "  dead gpus %v", e.DeadGPUs)
			}
			b.WriteString("\n")
		}
		for _, e := range f.Scale {
			if e.Reason != "" {
				fmt.Fprintf(&b, "  scale %.4gs %s fleet%d (%s, p99 %.4gms)\n", e.At, e.Action, e.Fleet, e.Reason, 1e3*e.P99)
			} else {
				fmt.Fprintf(&b, "  scale %.4gs %s fleet%d (p99 %.4gms)\n", e.At, e.Action, e.Fleet, 1e3*e.P99)
			}
		}
	}
	if f := r.Faults; f != nil {
		fmt.Fprintf(&b, "faults: %d recoveries, mean MTTR %.4gms\n",
			len(f.Recoveries), 1e3*f.MeanMTTR)
		for _, rec := range f.Recoveries {
			fmt.Fprintf(&b, "  crash gpu%d at %.4gs  mttr %.4gms\n", rec.GPU, rec.At, 1e3*rec.MTTR)
		}
	}
	if t := r.Telemetry; t != nil {
		fmt.Fprintf(&b, "telemetry: %d series, %d scrapes @ %.4gms cadence, %d samples retained",
			t.Series, t.Scrapes, 1e3*t.Interval, t.Samples)
		if t.Dropped > 0 {
			fmt.Fprintf(&b, " (%d dropped)", t.Dropped)
		}
		b.WriteString("\n")
		if t.Requests > 0 || t.Shed > 0 {
			fmt.Fprintf(&b, "telemetry: %d requests observed, %d shed, bad fraction %.4g, %d exemplars\n",
				t.Requests, t.Shed, t.BadFraction, t.Exemplars)
		}
		for _, ru := range t.Rules {
			fmt.Fprintf(&b, "  rule %-8s burn>%.3g over %.3gs/%.3gs windows  fired %d\n",
				ru.Name, ru.Burn, ru.Short, ru.Long, ru.Fired)
		}
		for _, a := range t.Alerts {
			fmt.Fprintf(&b, "  alert %-8s [%.4gs, %.4gs] peak burn %.3g\n",
				a.Rule, a.Start, a.End, a.Peak)
		}
	}
	return b.String()
}

// Summary renders the profile block of dspprof summary: window, overlap
// fractions, stall attribution and the per-lane table. Empty for a nil
// profile (a run that recorded no trace).
func (p *Profile) Summary() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "profile window [%.6g, %.6g]s\n", p.Window.Start, p.Window.End)
	fmt.Fprintf(&b, "pipeline overlap %.1f%%  comm/compute overlap %.1f%%\n",
		100*p.PipelineOverlap, 100*p.CommComputeOverlap)
	fmt.Fprintf(&b, "stalls: queue %.4gs  ccc %.4gs  (%d events)\n",
		p.Stalls.QueueWait, p.Stalls.CCCWait, p.Stalls.Count)
	if len(p.Lanes) > 0 {
		fmt.Fprintf(&b, "%-10s %-16s %10s %10s %7s %8s\n", "gpu", "lane", "busy(s)", "stall(s)", "util", "spans")
		for _, l := range p.Lanes {
			fmt.Fprintf(&b, "%-10s %-16s %10.4g %10.4g %6.1f%% %8d\n",
				l.GPU, l.Lane, l.Busy, l.Stall, 100*l.Util, l.Count)
		}
	}
	return b.String()
}
