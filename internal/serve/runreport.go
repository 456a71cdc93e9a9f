package serve

import (
	"strings"

	"repro/internal/prof"
)

// RunReport renders the serving run's own sections of the canonical
// prof.RunReport schema shared by every CLI. Identity, telemetry and profile
// are the caller's (RunReport.Attach).
func (r *Report) RunReport() *prof.RunReport {
	out := prof.New("dspserve")
	out.System = "DSP"
	if r.Strategy != "dsp" {
		out.System = "DSP-" + strings.ToUpper(r.Strategy)
	}
	out.WallTime = float64(r.Makespan)
	r.Counters.Render(out)
	out.Latency = prof.Latency(r.Latency)
	out.Serving = &prof.ServingReport{
		Offered:         r.Offered,
		Throughput:      r.Throughput,
		Completed:       r.Completed,
		Rounds:          r.Rounds,
		MeanBatch:       r.MeanBatch,
		ExpectedHitRate: r.ExpectedHitRate,
		Rerouted:        r.Rerouted,
		Lost:            r.Lost,
		DeadGPUs:        append([]int(nil), r.DeadGPUs...),
	}
	r.RenderServing(out.Serving)
	if len(r.Recoveries) > 0 || len(r.DeadGPUs) > 0 {
		fr := &prof.FaultReport{}
		var sum float64
		var repaired int
		for _, rec := range r.Recoveries {
			fr.Recoveries = append(fr.Recoveries, prof.RecoveryReport{
				GPU: rec.GPU, At: float64(rec.At), MTTR: float64(rec.MTTR),
			})
			if rec.MTTR >= 0 {
				sum += float64(rec.MTTR)
				repaired++
			}
		}
		if repaired > 0 {
			fr.MeanMTTR = sum / float64(repaired)
		}
		out.Faults = fr
	}
	return out
}
