// Package trace records simulated execution events (kernels, transfers,
// worker stages) and exports them in the Chrome trace-event format, so a
// DSP run can be inspected on a timeline in chrome://tracing or Perfetto —
// the virtual-time equivalent of an Nsight profile. Attach a Tracer to a
// machine (hw.Machine.Tracer) or pass one to the training CLIs with
// -trace.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Canonical thread-lane ids shared by every emitter so analysis code
// (internal/prof) can classify spans without string-matching lane labels.
// Every id is distinct: the device and worker lanes are 1-13, the serving
// frontend's 20/21, and injected faults render on 22. All are GPU pids.
const (
	LaneKernels  = 1  // compute/gather/sample kernels
	LaneNVLink   = 2  // NVLink transfers
	LaneUVA      = 3  // zero-copy host reads
	LaneSampler  = 10 // sampler worker stage
	LaneLoader   = 11 // loader worker stage
	LaneTrainer  = 12 // trainer worker stage
	LaneCCC      = 13 // CCC launch-gate waits
	LaneRequests = 20 // serving: per-request spans
	LaneRounds   = 21 // serving: dispatch-round spans
	LaneFaults   = 22 // fault injector: crash instants, stall and link spans
)

// Event is one trace event in microseconds of virtual time. Ph is "X"
// (complete span), "C" (counter sample, numeric Values) or "i" (instant).
type Event struct {
	Name   string             `json:"name"`
	Cat    string             `json:"cat"`
	Ph     string             `json:"ph"`
	Ts     float64            `json:"ts"`
	Dur    float64            `json:"dur,omitempty"`
	Pid    int                `json:"pid"`
	Tid    int                `json:"tid"`
	S      string             `json:"s,omitempty"`    // instant scope: "t", "p" or "g"
	Args   map[string]string  `json:"args,omitempty"` // string args ("X"/"i")
	Values map[string]float64 `json:"-"`              // numeric series ("C")
}

// Tracer accumulates events. The simulation is single-threaded, so no
// locking is needed; a nil *Tracer is safe to call (no-ops).
//
// By default the event buffer is unbounded; SetMaxEvents turns it into a
// ring that keeps the most recent events and counts the overwritten ones
// (long fleet runs stay within a fixed memory budget at the cost of
// losing the oldest spans).
type Tracer struct {
	events  []Event
	head    int               // next overwrite position once the ring is full (max > 0)
	max     int               // ring capacity; 0 = unbounded
	dropped int               // events overwritten by the ring
	names   map[[2]int]string // (pid, tid) -> lane name
	pids    map[int]string
}

// New creates an empty tracer.
func New() *Tracer {
	return &Tracer{names: map[[2]int]string{}, pids: map[int]string{}}
}

// Enabled reports whether events are being collected.
func (t *Tracer) Enabled() bool { return t != nil }

// SetMaxEvents caps the in-memory event buffer at n events (0 restores
// unbounded growth). When the cap is exceeded the oldest events are
// overwritten and counted; Dropped exposes the count and WriteJSON
// records it as a metadata event. If more than n events are already
// recorded, the oldest are dropped immediately.
func (t *Tracer) SetMaxEvents(n int) {
	if t == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	t.max = n
	if n > 0 && len(t.events) > n {
		ordered := t.ordered()
		t.dropped += len(ordered) - n
		t.events = ordered[len(ordered)-n:]
		t.head = 0
	}
}

// Dropped returns how many events the ring cap has discarded.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// push appends an event, overwriting the oldest once the ring is full.
func (t *Tracer) push(e Event) {
	if t.max > 0 && len(t.events) == t.max {
		t.events[t.head] = e
		t.head = (t.head + 1) % t.max
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// ordered returns the retained events in insertion order (unrolls the
// ring).
func (t *Tracer) ordered() []Event {
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out
}

// NamePid labels a process lane (e.g. "GPU 3").
func (t *Tracer) NamePid(pid int, name string) {
	if t == nil {
		return
	}
	t.pids[pid] = name
}

// NameLane labels a thread lane within a process (e.g. "sampler").
func (t *Tracer) NameLane(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.names[[2]int{pid, tid}] = name
}

// Complete records a finished span. start/end are virtual seconds.
func (t *Tracer) Complete(name, cat string, pid, tid int, start, end float64, args map[string]string) {
	if t == nil {
		return
	}
	t.push(Event{
		Name: name, Cat: cat, Ph: "X",
		Ts: start * 1e6, Dur: (end - start) * 1e6,
		Pid: pid, Tid: tid, Args: args,
	})
}

// Counter records a sample of one or more numeric series at virtual time ts
// (seconds). Chrome/Perfetto chart counters with the same (pid, name) as a
// stacked area over time — used for queue depths, outstanding requests, etc.
func (t *Tracer) Counter(name string, pid int, ts float64, values map[string]float64) {
	if t == nil {
		return
	}
	t.push(Event{
		Name: name, Cat: "counter", Ph: "C",
		Ts: ts * 1e6, Pid: pid, Values: values,
	})
}

// Instant records a zero-duration marker at virtual time ts (seconds), drawn
// as a flag on the lane — used for one-off occurrences such as shed requests.
// scope is "t" (thread), "p" (process) or "g" (global); empty defaults to "t".
func (t *Tracer) Instant(name, cat string, pid, tid int, ts float64, scope string, args map[string]string) {
	if t == nil {
		return
	}
	if scope == "" {
		scope = "t"
	}
	t.push(Event{
		Name: name, Cat: cat, Ph: "i",
		Ts: ts * 1e6, Pid: pid, Tid: tid, S: scope, Args: args,
	})
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns a copy of the recorded spans sorted by start time.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := t.ordered()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out
}

// PidNames returns a copy of the process-lane labels (pid -> name).
func (t *Tracer) PidNames() map[int]string {
	out := map[int]string{}
	if t == nil {
		return out
	}
	for pid, name := range t.pids {
		out[pid] = name
	}
	return out
}

// LaneNames returns a copy of the thread-lane labels ((pid, tid) -> name).
func (t *Tracer) LaneNames() map[[2]int]string {
	out := map[[2]int]string{}
	if t == nil {
		return out
	}
	for key, name := range t.names {
		out[key] = name
	}
	return out
}

// WriteJSON emits the Chrome trace-event JSON array, including metadata
// events naming the lanes.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]")
		return err
	}
	all := make([]map[string]interface{}, 0, len(t.events)+len(t.pids)+len(t.names))
	for pid, name := range t.pids {
		all = append(all, map[string]interface{}{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": map[string]string{"name": name},
		})
	}
	for key, name := range t.names {
		all = append(all, map[string]interface{}{
			"name": "thread_name", "ph": "M", "pid": key[0], "tid": key[1],
			"args": map[string]string{"name": name},
		})
	}
	if t.dropped > 0 {
		all = append(all, map[string]interface{}{
			"name": "dropped_events", "ph": "M", "pid": 0, "tid": 0,
			"args": map[string]int{"dropped": t.dropped},
		})
	}
	for _, e := range t.Events() {
		m := map[string]interface{}{
			"name": e.Name, "cat": e.Cat, "ph": e.Ph,
			"ts": e.Ts, "pid": e.Pid, "tid": e.Tid,
		}
		if e.Ph == "X" {
			m["dur"] = e.Dur
		}
		if e.S != "" {
			m["s"] = e.S
		}
		switch {
		case len(e.Values) > 0:
			m["args"] = e.Values
		case len(e.Args) > 0:
			m["args"] = e.Args
		}
		all = append(all, m)
	}
	// Deterministic output: sort metadata-first then by ts.
	sort.SliceStable(all, func(i, j int) bool {
		pi, pj := all[i]["ph"] == "M", all[j]["ph"] == "M"
		if pi != pj {
			return pi
		}
		ti, _ := all[i]["ts"].(float64)
		tj, _ := all[j]["ts"].(float64)
		if ti != tj {
			return ti < tj
		}
		return fmt.Sprint(all[i]["pid"], all[i]["tid"], all[i]["name"]) <
			fmt.Sprint(all[j]["pid"], all[j]["tid"], all[j]["name"])
	})
	enc := json.NewEncoder(w)
	// Span names may legitimately contain < and > (e.g. "nvlink->3"); keep
	// them byte-identical through a JSON round trip instead of > escapes.
	enc.SetEscapeHTML(false)
	return enc.Encode(all)
}
