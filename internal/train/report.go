package train

import (
	"repro/internal/metrics"
	"repro/internal/prof"
)

// BuildRunReport renders a training run's own sections of the versioned
// RunReport schema: epochs (with the driver's per-epoch validation
// accuracies, indexed like epochs; shorter is fine), stages, the counter
// sections summed over epochs and, when the fault-tolerant driver ran (ft
// non-nil), faults. Identity, telemetry and profile are the caller's
// (RunReport.Attach). Deterministic: same stats in, same report out.
func BuildRunReport(epochs []EpochStats, valAcc []float64, ft *FTReport) *prof.RunReport {
	r := prof.New("")
	var sum EpochStats
	for i, st := range epochs {
		er := prof.EpochReport{
			Epoch:       st.Epoch,
			Time:        float64(st.EpochTime),
			Acc:         st.Acc(),
			SampleStage: st.SampleDist.Sum(),
			LoadStage:   st.LoadDist.Sum(),
			TrainStage:  st.TrainDist.Sum(),
		}
		if i < len(valAcc) {
			er.ValAcc = valAcc[i]
		}
		r.Epochs = append(r.Epochs, er)
		sum.Add(st)
	}
	r.WallTime = float64(sum.EpochTime)
	if len(epochs) > 0 {
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
	if ft != nil {
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
	return r
}
