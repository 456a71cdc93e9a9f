package serve

import (
	"strings"

	"repro/internal/prof"
	"repro/internal/trace"
)

// ReportMeta carries the run identity a Report does not know about itself.
type ReportMeta struct {
	Dataset string
	GPUs    int
	Seed    uint64
	Shrink  int
	// Tracer, when enabled, contributes the trace-derived pipeline profile.
	Tracer *trace.Tracer
	// Telemetry, when set, embeds the scrape/alert summary produced by
	// telemetry.Hub.Section after Finish.
	Telemetry *prof.TelemetrySection
}

// RunReport renders the serving report into the canonical prof.RunReport
// schema shared by every CLI.
func (r *Report) RunReport(meta ReportMeta) *prof.RunReport {
	out := prof.New("dspserve")
	out.System = "DSP"
	if r.Strategy != "dsp" {
		out.System = "DSP-" + strings.ToUpper(r.Strategy)
	}
	out.Dataset = meta.Dataset
	out.GPUs = meta.GPUs
	out.Seed = meta.Seed
	out.Shrink = meta.Shrink
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
	out.Telemetry = meta.Telemetry
	if meta.Tracer.Enabled() {
		out.Profile = prof.Analyze(prof.FromTracer(meta.Tracer))
	}
	return out
}
