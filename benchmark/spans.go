package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one benchmark-side interval around a call into a layer. Spans live
// in memory and are written out once, when the traced run ends.
type span struct {
	ID     int
	Parent int // 0: root
	Name   string
	Layer  string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
}

// recorder collects the spans of one workload's traced run.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
	stack    []int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

// do runs fn inside a span named layer.name whose parent is the span open at
// the time of the call, and returns the span's duration in seconds. A nil
// recorder only times fn: the untraced runs share the code path.
func (r *recorder) do(layer, name string, fn func()) float64 {
	if r == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0).Seconds()
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: layer + "." + name, Layer: layer})
	r.stack = append(r.stack, id)
	start := time.Since(r.origin)
	fn()
	end := time.Since(r.origin)
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	return (end - start).Seconds()
}

// write stores the spans in Chrome trace format (chrome://tracing, Perfetto):
// one complete event per span on the host clock in microseconds, one lane per
// layer, with the span and parent ids and the workload in args.
func (r *recorder) write(dir string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	lanes := map[string]int{}
	var events []any
	for _, s := range r.spans {
		tid, ok := lanes[s.Layer]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Layer] = tid
			events = append(events, map[string]any{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]any{"name": s.Layer}})
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": r.workload},
		})
	}
	data, err := json.MarshalIndent(map[string]any{"displayTimeUnit": "ms", "traceEvents": events}, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+r.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
