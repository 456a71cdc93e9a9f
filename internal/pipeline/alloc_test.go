package pipeline

import (
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// sampled and loaded are struct payloads shaped like the trainer's (a
// pointer, a slice, a scalar): a queue of them holds them by value.
type sampled struct {
	step int
	ids  []int32
}

type loaded struct {
	in    *sampled
	feats []float32
	rows  int
}

// structEpoch runs one pipelined epoch of steps over struct payloads, every
// stage paying an overhead and timed into a distribution, as a training
// epoch is.
func structEpoch(steps int, dists [3]*metrics.Histogram) {
	ids, feats := make([]int32, 4), make([]float32, 8)
	in := &sampled{}
	eng := sim.NewEngine()
	RunPipelined(eng, "g", Stages[sampled, loaded]{
		NumBatches: steps,
		Overhead:   1e-4,
		SampleDist: dists[0], LoadDist: dists[1], TrainDist: dists[2],
		Samplers: []func(*sim.Proc, int) sampled{func(p *sim.Proc, step int) sampled {
			p.Sleep(1e-3)
			return sampled{step, ids}
		}},
		Loaders: []func(*sim.Proc, int, sampled) loaded{func(p *sim.Proc, step int, s sampled) loaded {
			p.Sleep(2e-3)
			return loaded{in, feats, len(s.ids)}
		}},
		Train: func(p *sim.Proc, step int, l loaded) {
			if l.rows != len(ids) {
				panic("train got wrong payload")
			}
			p.Sleep(3e-3)
		},
	}, 2, eng.NewEvent())
	if _, err := eng.Run(); err != nil {
		panic(err)
	}
}

// TestPipelineStepAllocs: a step of the pipeline allocates nothing — a
// 2N-step epoch makes exactly as many allocations as an N-step one, so
// everything an epoch allocates is set-up (engine, queues, workers). With
// interface payloads every step boxed its struct twice.
func TestPipelineStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dists := [3]*metrics.Histogram{metrics.New(), metrics.New(), metrics.New()}
	epoch := func(steps int) float64 {
		return testing.AllocsPerRun(20, func() { structEpoch(steps, dists) })
	}
	if n, n2 := epoch(200), epoch(400); n != n2 {
		t.Fatalf("a 200-step epoch allocates %v times, a 400-step one %v: steps allocate", n, n2)
	}
}

// BenchmarkRunPipelined times pipelined epochs of 256 steps over struct
// payloads and reports the host cost per step.
//
//	go test -run '^$' -bench RunPipelined -benchmem ./internal/pipeline/
func BenchmarkRunPipelined(b *testing.B) {
	const steps = 256
	dists := [3]*metrics.Histogram{metrics.New(), metrics.New(), metrics.New()}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		structEpoch(steps, dists)
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*steps), "allocs/step")
}
