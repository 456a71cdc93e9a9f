package prof

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Profile is the trace-derived pipeline profile of one window of virtual
// time. All durations are virtual seconds.
type Profile struct {
	Window Window `json:"window"`
	// Lanes is the per-GPU × per-lane busy/stall/utilisation breakdown,
	// sorted by (pid, tid).
	Lanes []LaneStat `json:"lanes,omitempty"`
	// Stalls attributes pipeline waits: queue (full/empty producer-consumer
	// queues) and CCC (leader-ordered communication launch gate).
	Stalls StallReport `json:"stalls"`
	// CriticalPath tiles the window exactly: contiguous segments, each
	// attributed to the span that bounded wall time at that instant (or to
	// idle when nothing was running anywhere).
	CriticalPath []Segment `json:"critical_path,omitempty"`
	// CriticalPathByCat and CriticalPathByLane decompose the critical path
	// by span category and by "GPU 0/trainer stage"-style lane.
	CriticalPathByCat  map[string]float64 `json:"critical_path_by_cat,omitempty"`
	CriticalPathByLane map[string]float64 `json:"critical_path_by_lane,omitempty"`
	// PipelineOverlap is the fraction of stage-busy time during which at
	// least two worker stages of the same GPU ran concurrently — the direct
	// measure of whether the sampler/loader/trainer pipeline overlaps. It is
	// exactly 0 for sequential (DSP-Seq) runs.
	PipelineOverlap float64 `json:"pipeline_overlap"`
	// CommComputeOverlap is the fraction of communication time (NVLink/UVA
	// lanes) during which a compute kernel was simultaneously resident on
	// the same GPU — how much communication the pipeline hides.
	CommComputeOverlap float64 `json:"comm_compute_overlap"`
	// TopSpans ranks normalised span names by self time (time not covered
	// by spans nested inside them on the same lane), capped at TopSpanCap.
	TopSpans []SpanAgg `json:"top_spans,omitempty"`
	// DroppedEvents counts events the tracer's ring cap (-trace-max-events)
	// discarded before analysis: when non-zero the profile under-reports the
	// oldest part of the run, and dspprof validate warns.
	DroppedEvents int `json:"dropped_events,omitempty"`
}

// TopSpanCap bounds the TopSpans table stored in a profile.
const TopSpanCap = 20

// Window is a [Start, End] interval of virtual seconds.
type Window struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Dur returns the window length in seconds.
func (w Window) Dur() float64 { return w.End - w.Start }

// LaneStat is one (GPU, lane) utilisation row.
type LaneStat struct {
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	GPU  string `json:"gpu"`
	Lane string `json:"lane"`
	// Busy is the union of non-stall span time on the lane; Stall the union
	// of stall spans; Util is Busy over the window.
	Busy  float64 `json:"busy"`
	Stall float64 `json:"stall,omitempty"`
	Util  float64 `json:"util"`
	Count int     `json:"count"`
}

// StallReport aggregates pipeline stalls over the window.
type StallReport struct {
	// QueueWait and CCCWait are total stall seconds summed over lanes.
	QueueWait float64 `json:"queue_wait"`
	CCCWait   float64 `json:"ccc_wait"`
	Count     int     `json:"count"`
	// ByLane maps "GPU 0/loader stage" -> stalled seconds.
	ByLane map[string]float64 `json:"by_lane,omitempty"`
	// QueueWaitDist and CCCWaitDist summarise per-stall durations — the
	// per-mini-batch stall attribution (one queue-wait span per blocked
	// queue operation per step).
	QueueWaitDist *LatencySummary `json:"queue_wait_dist,omitempty"`
	CCCWaitDist   *LatencySummary `json:"ccc_wait_dist,omitempty"`
}

// Segment is one critical-path slice: [Start, End] was bounded by the named
// span (Cat "idle" marks fleet-wide idleness).
type Segment struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	GPU   string  `json:"gpu,omitempty"`
	Lane  string  `json:"lane,omitempty"`
	Cat   string  `json:"cat"`
	Name  string  `json:"name"`
}

// SpanAgg aggregates all spans sharing a normalised name.
type SpanAgg struct {
	Name  string  `json:"name"` // digit runs collapsed to '#'
	Cat   string  `json:"cat"`
	Count int     `json:"count"`
	Total float64 `json:"total"` // sum of durations, seconds
	Self  float64 `json:"self"`  // total minus time of spans nested inside
}

// Validate checks the profile's internal consistency: the critical path must
// tile the window exactly (contiguous, covering, in order).
func (p *Profile) Validate() error {
	if p.Window.End < p.Window.Start {
		return fmt.Errorf("prof: profile window inverted [%g, %g]", p.Window.Start, p.Window.End)
	}
	if p.DroppedEvents < 0 {
		return fmt.Errorf("prof: negative dropped-events count %d", p.DroppedEvents)
	}
	if len(p.CriticalPath) == 0 {
		return nil
	}
	const eps = 1e-9
	first, last := p.CriticalPath[0], p.CriticalPath[len(p.CriticalPath)-1]
	if math.Abs(first.Start-p.Window.Start) > eps || math.Abs(last.End-p.Window.End) > eps {
		return fmt.Errorf("prof: critical path [%g, %g] does not span window [%g, %g]",
			first.Start, last.End, p.Window.Start, p.Window.End)
	}
	for i := 1; i < len(p.CriticalPath); i++ {
		if p.CriticalPath[i].Start != p.CriticalPath[i-1].End {
			return fmt.Errorf("prof: critical path gap at segment %d: %g != %g",
				i, p.CriticalPath[i].Start, p.CriticalPath[i-1].End)
		}
	}
	return nil
}

const usec = 1e-6 // trace timestamps are microseconds; profiles report seconds

// Analyze profiles the full trace: the window spans the first event start to
// the last span end.
func Analyze(t *Trace) *Profile {
	spans := t.Spans()
	if len(spans) == 0 {
		return &Profile{Stalls: StallReport{ByLane: map[string]float64{}}, DroppedEvents: t.Dropped}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range spans {
		if e.Ts < lo {
			lo = e.Ts
		}
		if e.Ts+e.Dur > hi {
			hi = e.Ts + e.Dur
		}
	}
	// The window is the span extent: a tracer attached mid-run (e.g. after
	// benchmark warm-up epochs) profiles only what it saw, with no phantom
	// lead-in idle.
	start, end := lo*usec, hi*usec
	p := &Profile{Window: Window{Start: start, End: end}}
	// Clip to the window as stored (seconds, back in µs); this also drops
	// zero-length spans.
	spans = clipSpans(spans, start/usec, end/usec)
	p.Lanes = laneStats(t, spans, p.Window)
	p.Stalls = stallReport(t, spans)
	p.CriticalPath = criticalPath(t, spans, p.Window)
	p.CriticalPathByCat = map[string]float64{}
	p.CriticalPathByLane = map[string]float64{}
	for _, seg := range p.CriticalPath {
		p.CriticalPathByCat[seg.Cat] += seg.End - seg.Start
		key := seg.Cat
		if seg.Cat != "idle" {
			key = seg.GPU + "/" + seg.Lane
		}
		p.CriticalPathByLane[key] += seg.End - seg.Start
	}
	p.PipelineOverlap = pipelineOverlap(spans)
	p.CommComputeOverlap = commComputeOverlap(spans)
	p.TopSpans = topSpans(spans, TopSpanCap)
	p.DroppedEvents = t.Dropped
	return p
}

// FilteredTopSpans recomputes the top-span table from a raw trace keeping
// only spans matching cat (empty matches all) and pid (-1 matches all) —
// the dspprof top -cat/-pid narrowing. n <= 0 means no cap.
func FilteredTopSpans(t *Trace, cat string, pid int, n int) []SpanAgg {
	spans := t.Spans()
	kept := make([]trace.Event, 0, len(spans))
	for _, e := range spans {
		if cat != "" && e.Cat != cat {
			continue
		}
		if pid >= 0 && e.Pid != pid {
			continue
		}
		kept = append(kept, e)
	}
	return topSpans(kept, n)
}

// clipSpans restricts spans to the window (µs bounds), trimming partials.
func clipSpans(spans []trace.Event, lo, hi float64) []trace.Event {
	out := make([]trace.Event, 0, len(spans))
	for _, e := range spans {
		s, t := e.Ts, e.Ts+e.Dur
		if t <= lo || s >= hi {
			continue
		}
		if s < lo {
			s = lo
		}
		if t > hi {
			t = hi
		}
		e.Ts, e.Dur = s, t-s
		if e.Dur > 0 {
			out = append(out, e)
		}
	}
	return out
}

// interval is a half-open busy interval in µs.
type interval struct{ lo, hi float64 }

// union merges overlapping intervals, returning them sorted.
func union(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		if last := &out[len(out)-1]; iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

func totalDur(ivs []interval) float64 {
	var d float64
	for _, iv := range ivs {
		d += iv.hi - iv.lo
	}
	return d
}

// intersect returns the total overlap between two unioned interval lists.
func intersect(a, b []interval) float64 {
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := math.Max(a[i].lo, b[j].lo)
		hi := math.Min(a[i].hi, b[j].hi)
		if hi > lo {
			d += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return d
}

// laneStats computes per-(pid, tid) busy/stall/utilisation.
func laneStats(t *Trace, spans []trace.Event, w Window) []LaneStat {
	type key struct{ pid, tid int }
	busy := map[key][]interval{}
	stall := map[key][]interval{}
	count := map[key]int{}
	for _, e := range spans {
		k := key{e.Pid, e.Tid}
		iv := interval{e.Ts, e.Ts + e.Dur}
		if e.Cat == "stall" {
			stall[k] = append(stall[k], iv)
		} else {
			busy[k] = append(busy[k], iv)
		}
		count[k]++
	}
	keys := make([]key, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	out := make([]LaneStat, 0, len(keys))
	for _, k := range keys {
		ls := LaneStat{
			Pid: k.pid, Tid: k.tid,
			GPU: t.PidName(k.pid), Lane: t.LaneName(k.pid, k.tid),
			Busy:  totalDur(union(busy[k])) * usec,
			Stall: totalDur(union(stall[k])) * usec,
			Count: count[k],
		}
		if w.Dur() > 0 {
			ls.Util = ls.Busy / w.Dur()
		}
		out = append(out, ls)
	}
	return out
}

// stallReport aggregates the "stall" spans (queue-wait, ccc-wait).
func stallReport(t *Trace, spans []trace.Event) StallReport {
	rep := StallReport{ByLane: map[string]float64{}}
	qd, cd := metrics.New(), metrics.New()
	for _, e := range spans {
		if e.Cat != "stall" {
			continue
		}
		d := e.Dur * usec
		rep.Count++
		rep.ByLane[t.PidName(e.Pid)+"/"+t.LaneName(e.Pid, e.Tid)] += d
		if e.Name == "ccc-wait" {
			rep.CCCWait += d
			cd.Observe(d)
		} else {
			rep.QueueWait += d
			qd.Observe(d)
		}
	}
	rep.QueueWaitDist = Latency(qd)
	rep.CCCWaitDist = Latency(cd)
	return rep
}

// critPriority ranks span categories for critical-path attribution: worker
// stages and serving rounds are the top-level units of work; kernels and
// transfers explain time outside any stage (e.g. cache rebalances); request
// spans include queueing and rank below execution; stalls only surface when
// literally nothing else is active.
func critPriority(cat string) int {
	switch cat {
	case "stage", "serve":
		return 5
	case "kernel":
		return 4
	case "comm":
		return 3
	case "request":
		return 2
	case "stall":
		return 1
	default:
		return 0
	}
}

// criticalPath walks the window backwards: from the end, the span active
// just before the cursor with the highest (priority, latest-start) wins the
// segment down to its own start, and the walk continues from there; when
// nothing is active the gap is attributed to idle, closing at the previous
// span end. By construction the segments tile [start, end] exactly — their
// summed durations reproduce the wall time — so "which stage on which GPU
// bounded the epoch" is read directly off the segment list.
func criticalPath(t *Trace, spans []trace.Event, w Window) []Segment {
	lo, hi := w.Start/usec, w.End/usec
	if hi <= lo {
		return nil
	}
	// Two candidate tiers: top-level spans first, everything else only when
	// no top-level span covers the cursor.
	var tier1, tier2 []trace.Event
	for _, e := range spans {
		if pr := critPriority(e.Cat); pr >= 5 || pr == 1 {
			tier1 = append(tier1, e)
		} else {
			tier2 = append(tier2, e)
		}
	}
	if len(tier1) == 0 {
		tier1, tier2 = tier2, nil
	}
	pick := func(pool []trace.Event, cursor float64) *trace.Event {
		var best *trace.Event
		for i := range pool {
			e := &pool[i]
			if e.Ts >= cursor || e.Ts+e.Dur < cursor {
				continue
			}
			if best == nil || better(e, best) {
				best = e
			}
		}
		return best
	}
	var segs []Segment
	cursor := hi
	for cursor > lo {
		best := pick(tier1, cursor)
		if best == nil {
			best = pick(tier2, cursor)
		}
		if best != nil {
			segStart := math.Max(best.Ts, lo)
			// A higher-priority span ending mid-segment takes over from its
			// end backwards: truncate so the next iteration re-picks there.
			pr := critPriority(best.Cat)
			for _, pool := range [][]trace.Event{tier1, tier2} {
				for _, e := range pool {
					if end := e.Ts + e.Dur; critPriority(e.Cat) > pr && end > segStart && end < cursor {
						segStart = end
					}
				}
			}
			segs = append(segs, Segment{
				Start: segStart * usec, End: cursor * usec,
				Pid: best.Pid, Tid: best.Tid,
				GPU: t.PidName(best.Pid), Lane: t.LaneName(best.Pid, best.Tid),
				Cat: best.Cat, Name: normalizeName(best.Name),
			})
			cursor = segStart
			continue
		}
		// Idle gap: close at the latest span end before the cursor.
		prev := lo
		for _, e := range spans {
			if end := e.Ts + e.Dur; end < cursor && end > prev {
				prev = end
			}
		}
		segs = append(segs, Segment{Start: prev * usec, End: cursor * usec, Cat: "idle", Name: "idle"})
		cursor = prev
	}
	// Reverse into chronological order and stitch float-exact boundaries.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	for i := 1; i < len(segs); i++ {
		segs[i].Start = segs[i-1].End
	}
	if len(segs) > 0 {
		segs[0].Start = w.Start
		segs[len(segs)-1].End = w.End
	}
	return segs
}

// better orders critical-path candidates: priority, then latest start, then
// (pid, tid, name) for determinism.
func better(a, b *trace.Event) bool {
	pa, pb := critPriority(a.Cat), critPriority(b.Cat)
	if pa != pb {
		return pa > pb
	}
	if a.Ts != b.Ts {
		return a.Ts > b.Ts
	}
	if a.Pid != b.Pid {
		return a.Pid < b.Pid
	}
	if a.Tid != b.Tid {
		return a.Tid < b.Tid
	}
	return a.Name < b.Name
}

// pipelineOverlap measures worker-stage concurrency per GPU: the summed time
// ≥2 stage lanes of one GPU were active, over the summed time ≥1 was.
func pipelineOverlap(spans []trace.Event) float64 {
	perGPU := map[int]map[int][]interval{}
	for _, e := range spans {
		if e.Cat != "stage" {
			continue
		}
		if perGPU[e.Pid] == nil {
			perGPU[e.Pid] = map[int][]interval{}
		}
		perGPU[e.Pid][e.Tid] = append(perGPU[e.Pid][e.Tid], interval{e.Ts, e.Ts + e.Dur})
	}
	// Sum in sorted pid order: float accumulation must not depend on map
	// iteration order, or same-seed runs stop being byte-identical.
	pids := make([]int, 0, len(perGPU))
	for pid := range perGPU {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var any, multi float64
	for _, pid := range pids {
		lanes := perGPU[pid]
		// Sweep over lane-union boundaries counting active lanes.
		type edge struct {
			ts    float64
			delta int
		}
		var edges []edge
		for _, ivs := range lanes {
			for _, iv := range union(ivs) {
				edges = append(edges, edge{iv.lo, 1}, edge{iv.hi, -1})
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].ts != edges[j].ts {
				return edges[i].ts < edges[j].ts
			}
			return edges[i].delta < edges[j].delta // close before open at ties
		})
		depth := 0
		var last float64
		for _, ed := range edges {
			if depth >= 1 {
				any += ed.ts - last
			}
			if depth >= 2 {
				multi += ed.ts - last
			}
			depth += ed.delta
			last = ed.ts
		}
	}
	// Abutting spans on different lanes can overlap by ~1 ulp because a
	// span's end is start*1e6 + dur*1e6, not end*1e6. Such slivers are
	// measurement noise, not pipelining: clamp them to an exact zero so a
	// sequential run reports overlap == 0.
	if any == 0 || multi <= any*1e-9 {
		return 0
	}
	return multi / any
}

// commComputeOverlap measures how much communication time (comm-category
// spans) had a compute kernel co-resident on the same GPU.
func commComputeOverlap(spans []trace.Event) float64 {
	comm := map[int][]interval{}
	kern := map[int][]interval{}
	for _, e := range spans {
		iv := interval{e.Ts, e.Ts + e.Dur}
		switch e.Cat {
		case "comm":
			comm[e.Pid] = append(comm[e.Pid], iv)
		case "kernel":
			kern[e.Pid] = append(kern[e.Pid], iv)
		}
	}
	pids := make([]int, 0, len(comm))
	for pid := range comm {
		pids = append(pids, pid)
	}
	sort.Ints(pids) // deterministic float accumulation order
	var commTotal, overlap float64
	for _, pid := range pids {
		cu := union(comm[pid])
		commTotal += totalDur(cu)
		overlap += intersect(cu, union(kern[pid]))
	}
	// Same ulp-sliver clamp as pipelineOverlap: back-to-back comm and
	// kernel spans are not overlap.
	if commTotal == 0 || overlap <= commTotal*1e-9 {
		return 0
	}
	return overlap / commTotal
}

// normalizeName collapses digit runs to '#' so per-step span names
// ("sample step 12", "req 4711") aggregate.
func normalizeName(name string) string {
	var b strings.Builder
	inDigits := false
	for _, r := range name {
		if r >= '0' && r <= '9' {
			if !inDigits {
				b.WriteByte('#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		b.WriteRune(r)
	}
	return b.String()
}

// topSpans ranks normalised span names by self time: each span's duration
// minus the duration of spans nested strictly inside it on the same lane
// (its immediate children — concurrent kernels that merely overlap are not
// subtracted).
func topSpans(spans []trace.Event, n int) []SpanAgg {
	type key struct{ pid, tid int }
	byLane := map[key][]trace.Event{}
	for _, e := range spans {
		k := key{e.Pid, e.Tid}
		byLane[k] = append(byLane[k], e)
	}
	laneKeys := make([]key, 0, len(byLane))
	for k := range byLane {
		laneKeys = append(laneKeys, k)
	}
	sort.Slice(laneKeys, func(i, j int) bool {
		if laneKeys[i].pid != laneKeys[j].pid {
			return laneKeys[i].pid < laneKeys[j].pid
		}
		return laneKeys[i].tid < laneKeys[j].tid
	}) // deterministic float accumulation order
	agg := map[string]*SpanAgg{}
	for _, lk := range laneKeys {
		lane := byLane[lk]
		sort.SliceStable(lane, func(i, j int) bool {
			if lane[i].Ts != lane[j].Ts {
				return lane[i].Ts < lane[j].Ts
			}
			return lane[i].Dur > lane[j].Dur // parents before children at ties
		})
		self := make([]float64, len(lane))
		var stack []int
		for i, e := range lane {
			self[i] = e.Dur
			for len(stack) > 0 && lane[stack[len(stack)-1]].Ts+lane[stack[len(stack)-1]].Dur < e.Ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				if p := stack[len(stack)-1]; e.Ts+e.Dur <= lane[p].Ts+lane[p].Dur {
					self[p] -= e.Dur
					stack = append(stack, i)
					continue
				}
			}
			stack = stack[:0]
			stack = append(stack, i)
		}
		for i, e := range lane {
			k := e.Cat + "/" + normalizeName(e.Name)
			a := agg[k]
			if a == nil {
				a = &SpanAgg{Name: normalizeName(e.Name), Cat: e.Cat}
				agg[k] = a
			}
			a.Count++
			a.Total += e.Dur * usec
			a.Self += self[i] * usec
		}
	}
	out := make([]SpanAgg, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
