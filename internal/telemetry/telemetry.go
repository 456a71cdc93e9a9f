// Package telemetry is the live observability layer for the simulated
// stack: a metrics registry whose sources are scraped on the virtual
// clock into fixed-cadence ring-buffer series, per-request stage spans
// with critical-path attribution and p99 exemplar drill-downs, and a
// multi-window SLO burn-rate alert engine consumed by the fleet
// autoscaler.
//
// Everything runs inside the discrete-event simulation: the scraper is a
// sim daemon, every observation happens at a virtual-time instant, and
// the exported document is byte-identical for a given seed at any
// -parallel setting (offloaded data work never touches hub state).
//
// A nil *Hub is a valid no-op receiver on every method, so call sites
// instrument unconditionally and pay nothing when telemetry is off.
package telemetry

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Kind classifies how a series source is sampled.
type Kind int

const (
	// Gauge samples the source value as-is at each scrape tick.
	Gauge Kind = iota
	// Counter samples a cumulative monotone value as-is; rendering and
	// Prometheus export treat it as a running total.
	Counter
	// Rate samples the per-tick delta of a cumulative source divided by
	// the scrape interval. A cumulative busy-time source becomes a busy
	// fraction in [0,1]; a cumulative byte counter becomes bytes/s.
	Rate
)

// String returns the document encoding of the kind.
func (k Kind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	case Counter:
		return "counter"
	case Rate:
		return "rate"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Config tunes the hub. Zero values take the defaults documented on each
// field.
type Config struct {
	// Interval is the scrape cadence on the virtual clock.
	// Default 2ms of virtual time.
	Interval sim.Time
	// RingCap bounds each series to its most recent RingCap samples;
	// older samples are dropped and counted. Default 2048.
	RingCap int
	// SLO is the per-request latency objective fed to the burn-rate
	// engine: completions over it (and shed requests) spend error
	// budget. Default 20ms of virtual time.
	SLO sim.Time
	// Target is the availability objective; the error budget is
	// 1 - Target. Default 0.99 (1% budget).
	Target float64
}

// maxExemplars caps how many latency-bucket exemplars the document keeps
// (the highest buckets win — the p99 drill-down).
const maxExemplars = 8

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 2e-3
	}
	if c.RingCap <= 0 {
		c.RingCap = 2048
	}
	if c.SLO <= 0 {
		c.SLO = 20e-3
	}
	if c.Target <= 0 || c.Target >= 1 {
		c.Target = 0.99
	}
	return c
}

// Series is one scraped time series: a fixed-cadence ring buffer of
// samples. Sample with global index i (0-based) was taken at virtual
// time (i+1)*Interval; the ring retains the most recent RingCap samples
// and counts the rest as dropped.
type Series struct {
	name    string
	kind    Kind
	fn      func(now sim.Time) float64
	prev    float64 // last cumulative value seen (Rate only)
	samples []float64
	head    int // next overwrite position once the ring is full
	total   int // samples ever taken
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Kind returns the sampling kind.
func (s *Series) Kind() Kind { return s.kind }

// Total returns how many samples were ever taken.
func (s *Series) Total() int { return s.total }

// Dropped returns how many old samples the ring has discarded. It equals
// the global index of the first retained sample.
func (s *Series) Dropped() int { return s.total - len(s.samples) }

// Values returns the retained samples in chronological order.
func (s *Series) Values() []float64 {
	out := make([]float64, 0, len(s.samples))
	out = append(out, s.samples[s.head:]...)
	out = append(out, s.samples[:s.head]...)
	return out
}

func (s *Series) push(v float64, capN int) {
	if len(s.samples) < capN {
		s.samples = append(s.samples, v)
	} else {
		s.samples[s.head] = v
		s.head = (s.head + 1) % capN
	}
	s.total++
}

// Stage indexes the per-request pipeline stages tracked by the hub.
type Stage int

const (
	// StageQueue is admission to round dispatch (queueing + batching
	// wait).
	StageQueue Stage = iota
	// StageSample is round dispatch to sampling done (CSP sample rounds
	// + executor handoff backpressure).
	StageSample
	// StageGather is feature gather: executor pickup through feature
	// load done.
	StageGather
	// StageForward is the forward pass to completion.
	StageForward

	numStages
)

// StageNames are the document encodings of the stages, indexed by Stage.
var StageNames = [numStages]string{"queue", "sample", "gather", "forward"}

// RequestSample carries one completed request's span timestamps through
// the pipeline. The hub derives stage durations, SLO goodness, the
// critical (dominant) stage and latency-bucket exemplars from it.
type RequestSample struct {
	ID    int
	GPU   int
	Round int
	// Arrival .. Done are the span boundaries, in causal order:
	// Arrival (admission), Dispatch (round formed), Sampled (sampling
	// done, handed to executor), Loaded (features gathered), Done
	// (forward complete).
	Arrival  sim.Time
	Dispatch sim.Time
	Sampled  sim.Time
	Loaded   sim.Time
	Done     sim.Time
}

// stages returns the four stage durations, clamped non-negative.
func (rs RequestSample) stages() [numStages]sim.Time {
	clamp := func(d sim.Time) sim.Time {
		if d < 0 {
			return 0
		}
		return d
	}
	return [numStages]sim.Time{
		clamp(rs.Dispatch - rs.Arrival),
		clamp(rs.Sampled - rs.Dispatch),
		clamp(rs.Loaded - rs.Sampled),
		clamp(rs.Done - rs.Loaded),
	}
}

// Exemplar is the worst (highest-latency) request observed in one
// latency histogram bucket — the drill-down target linked from the
// latency distribution.
type Exemplar struct {
	Bucket  int
	ID      int
	GPU     int
	Round   int
	Latency sim.Time
	Done    sim.Time
	// Critical is the dominant stage name for this request.
	Critical string
	// Stages are the four stage durations, indexed like StageNames.
	Stages [numStages]sim.Time
}

// Event is a point annotation on the timeline (degraded-mode entry,
// fleet kill, recovery) surfaced in the rendered dashboard.
type Event struct {
	At     sim.Time
	Name   string
	Detail string
}

// Hub is the live telemetry registry. Register sources before the first
// scrape, Start it on the engine that runs the workload, feed it
// requests and sheds as they happen, then Finish it once the run ends to
// obtain the exported document.
//
// All methods are nil-safe no-ops so instrumentation can stay
// unconditional.
type Hub struct {
	cfg Config

	eng     *sim.Engine
	started bool

	series []*Series
	names  map[string]bool

	// SLO stream (cumulative): good = completions within SLO,
	// bad = completions over SLO + shed requests.
	good, bad int
	shed      int
	observed  int

	latency   *metrics.Histogram
	stageHist [numStages]*metrics.Histogram
	critical  [numStages]int
	exemplars map[int]Exemplar

	ticks []tick
	rules []ruleState

	alerts []Alert
	events []Event

	finished bool
	doc      *Doc
}

// New builds a hub with cfg's knobs (zero values take defaults).
func New(cfg Config) *Hub {
	cfg = cfg.withDefaults()
	h := &Hub{
		cfg:       cfg,
		names:     make(map[string]bool),
		latency:   metrics.New(),
		exemplars: make(map[int]Exemplar),
	}
	for i := range h.stageHist {
		h.stageHist[i] = metrics.New()
	}
	for _, r := range DefaultRules() {
		h.rules = append(h.rules, ruleState{Rule: r})
	}
	return h
}

// Enabled reports whether the hub is live (non-nil).
func (h *Hub) Enabled() bool { return h != nil }

// Config returns the hub's resolved configuration.
func (h *Hub) Config() Config {
	if h == nil {
		return Config{}.withDefaults()
	}
	return h.cfg
}

func (h *Hub) register(name string, kind Kind, fn func(now sim.Time) float64) {
	if h == nil {
		return
	}
	if h.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate series %q", name))
	}
	if len(h.ticks) > 0 {
		panic(fmt.Sprintf("telemetry: series %q registered after the first scrape", name))
	}
	h.names[name] = true
	h.series = append(h.series, &Series{name: name, kind: kind, fn: fn})
}

// Gauge registers an instantaneous source sampled as-is each tick.
func (h *Hub) Gauge(name string, fn func(now sim.Time) float64) {
	h.register(name, Gauge, fn)
}

// Counter registers a cumulative monotone source sampled as-is.
func (h *Hub) Counter(name string, fn func(now sim.Time) float64) {
	h.register(name, Counter, fn)
}

// Rate registers a cumulative source sampled as per-interval rate: each
// tick stores (value - previous value) / Interval.
func (h *Hub) Rate(name string, fn func(now sim.Time) float64) {
	h.register(name, Rate, fn)
}

// Start launches the scraper daemon on eng. It is idempotent; repeated
// calls (one per fleet sharing a hub) are no-ops after the first. The
// daemon survives clean Run returns, so a hub spans multi-epoch training
// loops, but it does not survive Engine.Interrupt teardown — attach a
// fresh hub per engine.
func (h *Hub) Start(eng *sim.Engine) {
	if h == nil || h.started {
		return
	}
	h.started = true
	h.eng = eng
	eng.GoDaemon("telemetry/scraper", func(p *sim.Proc) {
		for {
			p.Sleep(h.cfg.Interval)
			h.scrape(p.Now())
		}
	})
}

// scrape samples every registered source and advances the alert engine.
// It runs in engine context at a virtual-time instant, so no locking is
// needed and the sample order (registration order) is deterministic.
func (h *Hub) scrape(now sim.Time) {
	for _, s := range h.series {
		v := s.fn(now)
		if s.kind == Rate {
			d := v - s.prev
			s.prev = v
			v = d / float64(h.cfg.Interval)
		}
		s.push(v, h.cfg.RingCap)
	}
	h.ticks = append(h.ticks, tick{at: now, good: h.good, bad: h.bad})
	h.evalRules(now)
}

// ObserveRequest feeds one completed request: latency and stage
// histograms, SLO good/bad stream, critical-stage attribution and
// exemplar upkeep.
func (h *Hub) ObserveRequest(rs RequestSample) {
	if h == nil {
		return
	}
	lat := rs.Done - rs.Arrival
	if lat < 0 {
		lat = 0
	}
	h.observed++
	h.latency.Observe(float64(lat))
	if lat <= h.cfg.SLO {
		h.good++
	} else {
		h.bad++
	}
	st := rs.stages()
	crit := Stage(0)
	for i := range st {
		h.stageHist[i].Observe(float64(st[i]))
		if st[i] > st[crit] {
			crit = Stage(i)
		}
	}
	h.critical[crit]++
	b := metrics.BucketOf(float64(lat))
	if ex, ok := h.exemplars[b]; !ok || lat > ex.Latency {
		h.exemplars[b] = Exemplar{
			Bucket:   b,
			ID:       rs.ID,
			GPU:      rs.GPU,
			Round:    rs.Round,
			Latency:  lat,
			Done:     rs.Done,
			Critical: StageNames[crit],
			Stages:   st,
		}
	}
}

// ObserveShed feeds one shed (rejected or dropped) request; sheds spend
// error budget immediately.
func (h *Hub) ObserveShed(now sim.Time) {
	if h == nil {
		return
	}
	_ = now
	h.shed++
	h.bad++
}

// RecordEvent annotates the timeline (degraded-mode entries, fleet
// kills). Rendered by dspmon under the series dashboard.
func (h *Hub) RecordEvent(at sim.Time, name, detail string) {
	if h == nil {
		return
	}
	h.events = append(h.events, Event{At: at, Name: name, Detail: detail})
}

// topExemplars returns up to max exemplars, highest latency bucket
// first — the p99 drill-down list.
func (h *Hub) topExemplars(max int) []Exemplar {
	buckets := make([]int, 0, len(h.exemplars))
	for b := range h.exemplars {
		buckets = append(buckets, b)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(buckets)))
	if len(buckets) > max {
		buckets = buckets[:max]
	}
	out := make([]Exemplar, len(buckets))
	for i, b := range buckets {
		out[i] = h.exemplars[b]
	}
	return out
}
