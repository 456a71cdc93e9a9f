package train

import (
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/trace"
)

// ReportInput collects everything a training CLI knows about a finished run;
// BuildRunReport renders it into the canonical prof.RunReport document.
type ReportInput struct {
	Command string // emitting binary, e.g. "dsptrain"
	System  string // system under test, e.g. "DSP"
	Dataset string
	GPUs    int
	Seed    uint64
	Shrink  int

	// Epochs are the committed epochs; the wire, compression, cache, store
	// and strategy sections render from the sum of their Counters.
	Epochs []EpochStats
	// ValAcc carries the per-epoch validation accuracies the driver measured
	// (indexed like Epochs; shorter is fine).
	ValAcc []float64
	// FT is the fault-tolerant driver's report, when that path ran.
	FT *FTReport
	// Tracer, when enabled, contributes the trace-derived pipeline profile.
	Tracer *trace.Tracer
	// Telemetry is the scrape/alert summary (nil without -telemetry).
	Telemetry *prof.TelemetrySection
}

// BuildRunReport renders a training run into the versioned RunReport schema.
// Deterministic: same stats in, same report out.
func BuildRunReport(in ReportInput) *prof.RunReport {
	r := prof.New(in.Command)
	r.System = in.System
	r.Dataset = in.Dataset
	r.GPUs = in.GPUs
	r.Seed = in.Seed
	r.Shrink = in.Shrink

	var sum EpochStats
	for i, st := range in.Epochs {
		er := prof.EpochReport{
			Epoch:       st.Epoch,
			Time:        float64(st.EpochTime),
			Acc:         st.Acc(),
			SampleStage: st.SampleDist.Sum(),
			LoadStage:   st.LoadDist.Sum(),
			TrainStage:  st.TrainDist.Sum(),
		}
		if i < len(in.ValAcc) {
			er.ValAcc = in.ValAcc[i]
		}
		r.Epochs = append(r.Epochs, er)
		sum.Add(st)
	}
	r.WallTime = float64(sum.EpochTime)
	if len(in.Epochs) > 0 {
		r.Utilization = append([]float64(nil), sum.Utilization...)
		r.Stages = map[string]float64{
			"sample": sum.SampleDist.Sum(),
			"load":   sum.LoadDist.Sum(),
			"train":  sum.TrainDist.Sum(),
		}
	}
	for name, dist := range map[string]*metrics.Histogram{"sample": sum.SampleDist, "load": sum.LoadDist, "train": sum.TrainDist} {
		if s := prof.Latency(dist); s != nil {
			if r.StageLatency == nil {
				r.StageLatency = map[string]*prof.LatencySummary{}
			}
			r.StageLatency[name] = s
		}
	}
	sum.Counters.Render(r)
	if ft := in.FT; ft != nil {
		r.WallTime = float64(ft.TotalTime)
		fr := &prof.FaultReport{
			MeanMTTR:        float64(ft.MTTR()),
			Checkpoints:     ft.Ckpt.Checkpoints,
			CkptBytes:       ft.Ckpt.Bytes,
			CkptOverheadPct: ft.Ckpt.OverheadPercent(ft.TotalTime),
		}
		for _, rec := range ft.Recoveries {
			fr.Recoveries = append(fr.Recoveries, prof.RecoveryReport{
				GPU: rec.GPU, At: float64(rec.CrashAt), MTTR: float64(rec.MTTR),
			})
		}
		r.Faults = fr
	}
	r.Telemetry = in.Telemetry
	if in.Tracer.Enabled() {
		r.Profile = prof.Analyze(prof.FromTracer(in.Tracer))
	}
	return r
}
