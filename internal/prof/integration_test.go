package prof_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/train"
)

// runTraced executes a 2-GPU, 2-epoch DSP run with tracing and returns the
// tracer plus the per-epoch stats.
func runTraced(t *testing.T, pipelined bool, seed uint64) (*trace.Tracer, []train.EpochStats, *core.DSP) {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "proftest", Nodes: 12000, AvgDegree: 12, FeatDim: 32,
		NumClasses: 8, Seed: 404,
	})
	td := train.Prepare(d, 2, 1, true)
	sys, err := core.New(train.Options{
		Data:      td,
		Model:     nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 32, Classes: td.NumClasses, Layers: 2},
		Sample:    sample.Config{Fanout: []int{10, 8}},
		BatchSize: 256,
		Pipeline:  pipelined,
		UseCCC:    true,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	sys.Machine().SetTracer(tr)
	var stats []train.EpochStats
	for e := 0; e < 2; e++ {
		st, err := sys.RunEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
	}
	return tr, stats, sys
}

// TestCriticalPathTilesRealRun is the profiler's headline acceptance
// criterion: on a traced 2-GPU, 2-epoch run, the critical-path segments sum
// EXACTLY (not approximately) to the profile window's elapsed virtual time.
func TestCriticalPathTilesRealRun(t *testing.T) {
	tr, _, _ := runTraced(t, true, 7)
	p := prof.Analyze(prof.FromTracer(tr))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.CriticalPath) == 0 {
		t.Fatal("no critical path on a traced run")
	}
	var sum float64
	for i, s := range p.CriticalPath {
		if s.End < s.Start {
			t.Fatalf("segment %d inverted: %+v", i, s)
		}
		if i > 0 && s.Start != p.CriticalPath[i-1].End {
			t.Fatalf("segment %d not contiguous: starts %g, previous ends %g",
				i, s.Start, p.CriticalPath[i-1].End)
		}
		sum += s.End - s.Start
	}
	if sum != p.Window.Dur() {
		t.Fatalf("critical path sums to %g, window elapsed is %g (must be exact)", sum, p.Window.Dur())
	}
	if p.CriticalPath[0].Start != p.Window.Start || p.CriticalPath[len(p.CriticalPath)-1].End != p.Window.End {
		t.Fatal("critical path does not span the window")
	}
	// The by-category decomposition re-sums to the same total.
	var byCat float64
	for _, v := range p.CriticalPathByCat {
		byCat += v
	}
	if math.Abs(byCat-sum) > 1e-12*sum {
		t.Fatalf("by-cat decomposition %g != path total %g", byCat, sum)
	}
}

// TestOverlapPipelinedVsSequential: the pipelined system must show stage
// overlap; the sequential (DSP-Seq) system must show exactly zero.
func TestOverlapPipelinedVsSequential(t *testing.T) {
	trP, _, _ := runTraced(t, true, 7)
	pp := prof.Analyze(prof.FromTracer(trP))
	if pp.PipelineOverlap <= 0 {
		t.Fatalf("pipelined run shows no stage overlap (%g)", pp.PipelineOverlap)
	}
	trS, _, _ := runTraced(t, false, 7)
	ps := prof.Analyze(prof.FromTracer(trS))
	if ps.PipelineOverlap != 0 {
		t.Fatalf("sequential run shows stage overlap %g, want exactly 0", ps.PipelineOverlap)
	}
}

// TestStallAttributionRealRun: the pipelined run records queue-wait spans on
// stage lanes and ccc-wait spans on the CCC lane, and they show up in the
// stall report.
func TestStallAttributionRealRun(t *testing.T) {
	tr, _, _ := runTraced(t, true, 7)
	p := prof.Analyze(prof.FromTracer(tr))
	if p.Stalls.Count == 0 {
		t.Fatal("no stall spans recorded on a pipelined run")
	}
	if p.Stalls.QueueWait <= 0 {
		t.Fatalf("queue-wait total %g, want > 0", p.Stalls.QueueWait)
	}
	if p.Stalls.CCCWait <= 0 {
		t.Fatalf("ccc-wait total %g, want > 0 (CCC is enabled)", p.Stalls.CCCWait)
	}
	if p.Stalls.QueueWaitDist == nil || p.Stalls.QueueWaitDist.Count == 0 {
		t.Fatal("missing per-stall queue-wait distribution")
	}
}

// TestRunReportDeterminism: identical seeds produce byte-identical trace
// JSON and byte-identical RunReport JSON.
func TestRunReportDeterminism(t *testing.T) {
	build := func() ([]byte, []byte) {
		tr, stats, sys := runTraced(t, true, 13)
		var traceBuf bytes.Buffer
		if err := tr.WriteJSON(&traceBuf); err != nil {
			t.Fatal(err)
		}
		rep := train.BuildRunReport(stats, nil, nil)
		rep.Command, rep.System, rep.Dataset, rep.GPUs, rep.Seed = "dsptrain", sys.Name(), "proftest", 2, 13
		rep.Attach(nil, tr)
		data, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return traceBuf.Bytes(), data
	}
	t1, r1 := build()
	t2, r2 := build()
	if !bytes.Equal(t1, t2) {
		t.Fatal("same-seed traces are not byte-identical")
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("same-seed run reports are not byte-identical")
	}
	// And the report parses back valid.
	if _, err := prof.ParseReport(r1); err != nil {
		t.Fatal(err)
	}
}

// TestProfileFromParsedTraceMatchesLive: analysing a written-then-parsed
// trace file gives the same profile as analysing the live tracer.
func TestProfileFromParsedTraceMatchesLive(t *testing.T) {
	tr, _, _ := runTraced(t, true, 7)
	live := prof.Analyze(prof.FromTracer(tr))
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := prof.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fromFile := prof.Analyze(parsed)
	if live.Window != fromFile.Window {
		t.Fatalf("windows differ: live %+v file %+v", live.Window, fromFile.Window)
	}
	if len(live.CriticalPath) != len(fromFile.CriticalPath) {
		t.Fatalf("critical paths differ: %d vs %d segments",
			len(live.CriticalPath), len(fromFile.CriticalPath))
	}
	if live.PipelineOverlap != fromFile.PipelineOverlap ||
		live.CommComputeOverlap != fromFile.CommComputeOverlap {
		t.Fatal("overlap fractions differ between live and parsed traces")
	}
}
