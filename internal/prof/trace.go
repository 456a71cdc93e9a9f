package prof

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Trace is the analyzer's view of a recorded run: complete spans plus the
// lane labels, whether captured live from a Tracer or parsed back from a
// Chrome trace-event JSON file.
type Trace struct {
	// Events holds the events sorted by start time; Ts/Dur are in
	// microseconds of virtual time, as recorded.
	Events []trace.Event
	// Pids labels process lanes ("GPU 0"); Lanes labels (pid, tid) threads.
	Pids  map[int]string
	Lanes map[[2]int]string
	// Dropped counts events the tracer's ring cap discarded before this
	// trace was captured (see trace.Tracer.SetMaxEvents).
	Dropped int
}

// FromTracer captures a live tracer's events for analysis.
func FromTracer(t *trace.Tracer) *Trace {
	return &Trace{Events: t.Events(), Pids: t.PidNames(), Lanes: t.LaneNames(), Dropped: t.Dropped()}
}

// ParseTrace decodes a Chrome trace-event JSON array (the trace.WriteJSON
// format), reconstructing spans and lane metadata.
func ParseTrace(data []byte) (*Trace, error) {
	var raw []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		Ts   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		S    string          `json:"s"`
		Args json.RawMessage `json:"args"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("prof: bad trace JSON: %w", err)
	}
	t := &Trace{Pids: map[int]string{}, Lanes: map[[2]int]string{}}
	for _, e := range raw {
		switch e.Ph {
		case "M":
			var meta struct {
				Name    string `json:"name"`
				Dropped int    `json:"dropped"`
			}
			if len(e.Args) > 0 {
				if err := json.Unmarshal(e.Args, &meta); err != nil {
					return nil, fmt.Errorf("prof: bad metadata args: %w", err)
				}
			}
			switch e.Name {
			case "process_name":
				t.Pids[e.Pid] = meta.Name
			case "thread_name":
				t.Lanes[[2]int{e.Pid, e.Tid}] = meta.Name
			case "dropped_events":
				t.Dropped = meta.Dropped
			}
		case "X", "i", "C":
			ev := trace.Event{
				Name: e.Name, Cat: e.Cat, Ph: e.Ph,
				Ts: e.Ts, Dur: e.Dur, Pid: e.Pid, Tid: e.Tid, S: e.S,
			}
			if len(e.Args) > 0 && e.Ph != "C" {
				var args map[string]string
				// Args of X/i events are string maps; ignore mismatches so
				// foreign traces still load.
				if json.Unmarshal(e.Args, &args) == nil {
					ev.Args = args
				}
			}
			t.Events = append(t.Events, ev)
		}
	}
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].Ts < t.Events[j].Ts })
	return t, nil
}

// LaneName labels a (pid, tid) lane, synthesising one if unnamed.
func (t *Trace) LaneName(pid, tid int) string {
	if name, ok := t.Lanes[[2]int{pid, tid}]; ok {
		return name
	}
	return fmt.Sprintf("tid %d", tid)
}

// PidName labels a process lane, synthesising one if unnamed.
func (t *Trace) PidName(pid int) string {
	if name, ok := t.Pids[pid]; ok {
		return name
	}
	return fmt.Sprintf("pid %d", pid)
}

// Spans returns the complete ("X") events with positive duration.
func (t *Trace) Spans() []trace.Event {
	out := make([]trace.Event, 0, len(t.Events))
	for _, e := range t.Events {
		if e.Ph == "X" && e.Dur > 0 {
			out = append(out, e)
		}
	}
	return out
}

// IsReportJSON sniffs whether data is a RunReport document (a JSON object)
// rather than a Chrome trace (a JSON array).
func IsReportJSON(data []byte) bool {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}
