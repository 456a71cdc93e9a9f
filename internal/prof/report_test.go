package prof

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func sampleReport(wall float64, p99 float64) *RunReport {
	r := New("dsptrain")
	r.System = "DSP"
	r.GPUs = 2
	r.WallTime = wall
	r.Latency = &LatencySummary{Count: 100, Mean: p99 / 2, P50: p99 / 3, P95: p99 * 0.9, P99: p99, Min: 1, Max: p99}
	r.Wire = Wire{Sample: 1000, Feature: 2000, Grad: 3000}
	return r
}

func TestReportRoundTrip(t *testing.T) {
	r := sampleReport(12.5, 3.2)
	r.Stages = map[string]float64{"sample": 1, "load": 2, "train": 3}
	r.Compression = map[string]WireStat{"grad": {Raw: 1000, Wire: 250}}
	r.Cache = &CacheReport{Policy: "adaptive", Local: 10, Peer: 5, Host: 1, HitRate: 0.9}
	r.Epochs = []EpochReport{{Epoch: 0, Time: 6.25}, {Epoch: 1, Time: 6.25}}
	r.Profile = Analyze(synthTrace())
	data, err := r.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.WallTime != r.WallTime || back.Cache.HitRate != 0.9 || len(back.Epochs) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	data2, err := back.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding a parsed report is not byte-identical")
	}
}

func TestReportValidation(t *testing.T) {
	r := New("dsptrain")
	if err := r.Validate(); err != nil {
		t.Fatalf("minimal report invalid: %v", err)
	}
	r.Schema = "dsp-runreport/99"
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "unsupported schema") {
		t.Fatalf("schema version not checked: %v", err)
	}
	r = New("")
	if err := r.Validate(); err == nil {
		t.Fatal("empty command accepted")
	}
	r = New("dsptrain")
	r.WallTime = -1
	if err := r.Validate(); err == nil {
		t.Fatal("negative wall time accepted")
	}
	r = New("dsptrain")
	r.Profile = &Profile{Window: Window{Start: 0, End: 1}, CriticalPath: []Segment{
		{Start: 0, End: 0.4}, {Start: 0.5, End: 1}, // gap 0.4..0.5
	}}
	if err := r.Validate(); err == nil {
		t.Fatal("gapped critical path accepted")
	}
}

func TestIsReportJSON(t *testing.T) {
	if !IsReportJSON([]byte("  \n{\"schema\": \"x\"}")) {
		t.Fatal("object not detected as report")
	}
	if IsReportJSON([]byte("[\n{}\n]")) {
		t.Fatal("array detected as report")
	}
	if IsReportJSON(nil) {
		t.Fatal("empty input detected as report")
	}
}

func TestLatencySummary(t *testing.T) {
	if Latency(nil) != nil || Latency(metrics.New()) != nil {
		t.Fatal("empty histogram should summarise to nil")
	}
	h := metrics.New()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := Latency(h)
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	// Histogram buckets are ~2% wide; p50 near 500.
	if s.P50 < 450 || s.P50 > 550 {
		t.Fatalf("p50 = %g", s.P50)
	}
}

func TestReportJSONNoHTMLEscape(t *testing.T) {
	r := New("dsptrain")
	r.System = "a<b>&c"
	data, err := r.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("a<b>&c")) {
		t.Fatalf("HTML-escaped output: %s", data)
	}
}
