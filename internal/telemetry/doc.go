package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/sim"
)

// DocSchema versions the exported telemetry document.
const DocSchema = "dsp-telemetry/1"

// Doc is the finished telemetry export: every series, the request span
// summary with exemplars, the rule table and the alert timeline.
// Encoding is canonical (stable key order via struct fields, no HTML
// escaping, two-space indent), so same-seed runs produce byte-identical
// files at any -parallel setting.
type Doc struct {
	Schema   string      `json:"schema"`
	Interval float64     `json:"interval"`
	Horizon  float64     `json:"horizon"`
	SLO      float64     `json:"slo"`
	Target   float64     `json:"target"`
	Scrapes  int         `json:"scrapes"`
	Series   []SeriesDoc `json:"series"`
	Requests RequestsDoc `json:"requests"`
	Rules    []RuleDoc   `json:"rules"`
	Alerts   []AlertDoc  `json:"alerts"`
	Events   []EventDoc  `json:"events,omitempty"`
}

// SeriesDoc is one exported ring-buffer series. Values[i] was sampled at
// virtual time (First+i+1)*Interval; First > 0 means the ring dropped
// the oldest First samples.
type SeriesDoc struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	First   int       `json:"first"`
	Dropped int       `json:"dropped,omitempty"`
	Values  []float64 `json:"values"`
}

// SummaryDoc condenses a latency distribution.
type SummaryDoc struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func summarize(h *metrics.Histogram) SummaryDoc {
	if h.Count() == 0 {
		return SummaryDoc{}
	}
	return SummaryDoc{
		Count: int(h.Count()),
		Mean:  h.Mean(),
		P50:   h.P50(),
		P95:   h.P95(),
		P99:   h.P99(),
		Max:   h.Max(),
	}
}

// StageDoc is one pipeline stage's duration distribution plus how many
// requests it dominated (was the critical-path stage for).
type StageDoc struct {
	Name     string     `json:"name"`
	Critical int        `json:"critical"`
	Duration SummaryDoc `json:"duration"`
}

// RequestsDoc summarizes the per-request span stream.
type RequestsDoc struct {
	Observed    int           `json:"observed"`
	Good        int           `json:"good"`
	Bad         int           `json:"bad"`
	Shed        int           `json:"shed,omitempty"`
	BadFraction float64       `json:"bad_fraction"`
	Latency     SummaryDoc    `json:"latency"`
	Stages      []StageDoc    `json:"stages"`
	Exemplars   []ExemplarDoc `json:"exemplars,omitempty"`
}

// ExemplarDoc is one latency-bucket exemplar: the worst request in its
// histogram bucket, with its full stage breakdown.
type ExemplarDoc struct {
	Bucket   int     `json:"bucket"`
	ID       int     `json:"id"`
	GPU      int     `json:"gpu"`
	Round    int     `json:"round"`
	Latency  float64 `json:"latency"`
	Done     float64 `json:"done"`
	Critical string  `json:"critical"`
	Queue    float64 `json:"queue"`
	Sample   float64 `json:"sample"`
	Gather   float64 `json:"gather"`
	Forward  float64 `json:"forward"`
}

// RuleDoc is one burn-rate rule plus how many alerts it fired.
type RuleDoc struct {
	Name  string  `json:"name"`
	Short float64 `json:"short"`
	Long  float64 `json:"long"`
	Burn  float64 `json:"burn"`
	Page  bool    `json:"page,omitempty"`
	Fired int     `json:"fired"`
}

// AlertDoc is one closed firing interval.
type AlertDoc struct {
	Rule  string  `json:"rule"`
	Page  bool    `json:"page,omitempty"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Peak  float64 `json:"peak"`
}

// EventDoc is one timeline annotation.
type EventDoc struct {
	At     float64 `json:"at"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
}

// Finish closes the hub at virtual time end and builds the export
// document: open alerts are closed at end, series rings are unrolled,
// and the request stream is summarized. Finish is idempotent — repeated
// calls return the same document.
func (h *Hub) Finish(end sim.Time) *Doc {
	if h == nil {
		return nil
	}
	if h.finished {
		return h.doc
	}
	h.finished = true
	for ri := range h.rules {
		if h.rules[ri].firing {
			h.closeAlert(&h.rules[ri], end)
		}
	}

	d := &Doc{
		Schema:   DocSchema,
		Interval: float64(h.cfg.Interval),
		Horizon:  float64(end),
		SLO:      float64(h.cfg.SLO),
		Target:   h.cfg.Target,
		Scrapes:  len(h.ticks),
		Series:   make([]SeriesDoc, 0, len(h.series)),
		Rules:    make([]RuleDoc, 0, len(h.rules)),
		Alerts:   make([]AlertDoc, 0, len(h.alerts)),
	}
	for _, s := range h.series {
		d.Series = append(d.Series, SeriesDoc{
			Name:    s.name,
			Kind:    s.kind.String(),
			First:   s.Dropped(),
			Dropped: s.Dropped(),
			Values:  s.Values(),
		})
	}

	req := RequestsDoc{
		Observed: int(h.latency.Count()),
		Good:     h.good,
		Bad:      h.bad,
		Shed:     h.shed,
		Latency:  summarize(h.latency),
		Stages:   make([]StageDoc, numStages),
	}
	if h.good+h.bad > 0 {
		req.BadFraction = float64(h.bad) / float64(h.good+h.bad)
	}
	for i := 0; i < int(numStages); i++ {
		req.Stages[i] = StageDoc{
			Name:     StageNames[i],
			Critical: h.critical[i],
			Duration: summarize(h.stageHist[i]),
		}
	}
	for _, ex := range h.topExemplars(maxExemplars) {
		req.Exemplars = append(req.Exemplars, ExemplarDoc{
			Bucket:   ex.Bucket,
			ID:       ex.ID,
			GPU:      ex.GPU,
			Round:    ex.Round,
			Latency:  float64(ex.Latency),
			Done:     float64(ex.Done),
			Critical: ex.Critical,
			Queue:    float64(ex.Stages[StageQueue]),
			Sample:   float64(ex.Stages[StageSample]),
			Gather:   float64(ex.Stages[StageGather]),
			Forward:  float64(ex.Stages[StageForward]),
		})
	}
	d.Requests = req

	for i := range h.rules {
		rs := &h.rules[i]
		d.Rules = append(d.Rules, RuleDoc{
			Name:  rs.Rule.Name,
			Short: float64(rs.Rule.Short),
			Long:  float64(rs.Rule.Long),
			Burn:  rs.Rule.Burn,
			Page:  rs.Rule.Page,
			Fired: rs.fired,
		})
	}
	for _, a := range h.alerts {
		d.Alerts = append(d.Alerts, AlertDoc{
			Rule:  a.Rule,
			Page:  a.Page,
			Start: float64(a.Start),
			End:   float64(a.End),
			Peak:  a.Peak,
		})
	}
	for _, e := range h.events {
		d.Events = append(d.Events, EventDoc{At: float64(e.At), Name: e.Name, Detail: e.Detail})
	}
	h.doc = d
	return d
}

// WriteJSON writes the canonical encoding to w.
func (d *Doc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// EncodeJSON returns the canonical encoding as bytes.
func (d *Doc) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile writes the canonical encoding to path.
func (d *Doc) WriteFile(path string) error {
	b, err := d.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ParseDoc decodes a dsp-telemetry/1 document from r.
func ParseDoc(r io.Reader) (*Doc, error) {
	var d Doc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("telemetry: parse: %w", err)
	}
	if d.Schema != DocSchema {
		return nil, fmt.Errorf("telemetry: unsupported schema %q (want %q)", d.Schema, DocSchema)
	}
	return &d, nil
}

// ReadDocFile loads a dsp-telemetry/1 document from path.
func ReadDocFile(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseDoc(f)
}

// Validate checks the document's internal arithmetic.
func (d *Doc) Validate() error {
	if d.Schema != DocSchema {
		return fmt.Errorf("telemetry: schema %q, want %q", d.Schema, DocSchema)
	}
	if d.Interval <= 0 {
		return fmt.Errorf("telemetry: interval %v must be positive", d.Interval)
	}
	if d.Horizon < 0 {
		return fmt.Errorf("telemetry: negative horizon %v", d.Horizon)
	}
	if d.Scrapes < 0 {
		return fmt.Errorf("telemetry: negative scrape count %d", d.Scrapes)
	}
	for _, s := range d.Series {
		switch s.Kind {
		case "gauge", "counter", "rate":
		default:
			return fmt.Errorf("telemetry: series %q has unknown kind %q", s.Name, s.Kind)
		}
		if s.First < 0 || s.Dropped < 0 {
			return fmt.Errorf("telemetry: series %q has negative first/dropped", s.Name)
		}
		if s.First != s.Dropped {
			return fmt.Errorf("telemetry: series %q first %d != dropped %d", s.Name, s.First, s.Dropped)
		}
		if got := s.First + len(s.Values); got > d.Scrapes {
			return fmt.Errorf("telemetry: series %q spans %d samples, document has %d scrapes", s.Name, got, d.Scrapes)
		}
	}
	r := d.Requests
	if r.Observed < 0 || r.Good < 0 || r.Bad < 0 || r.Shed < 0 {
		return fmt.Errorf("telemetry: negative request counts")
	}
	if r.Good+r.Bad != r.Observed+r.Shed {
		return fmt.Errorf("telemetry: good %d + bad %d != observed %d + shed %d",
			r.Good, r.Bad, r.Observed, r.Shed)
	}
	if r.BadFraction < 0 || r.BadFraction > 1 {
		return fmt.Errorf("telemetry: bad_fraction %v outside [0,1]", r.BadFraction)
	}
	crit := 0
	for _, st := range r.Stages {
		if st.Critical < 0 {
			return fmt.Errorf("telemetry: stage %q has negative critical count", st.Name)
		}
		crit += st.Critical
	}
	if len(r.Stages) > 0 && crit != r.Observed {
		return fmt.Errorf("telemetry: critical-stage counts sum to %d, observed %d", crit, r.Observed)
	}
	rules := make(map[string]bool, len(d.Rules))
	for _, ru := range d.Rules {
		if ru.Short <= 0 || ru.Long <= 0 || ru.Short >= ru.Long {
			return fmt.Errorf("telemetry: rule %q windows %v/%v must satisfy 0 < short < long", ru.Name, ru.Short, ru.Long)
		}
		if ru.Burn <= 0 {
			return fmt.Errorf("telemetry: rule %q burn threshold %v must be positive", ru.Name, ru.Burn)
		}
		if ru.Fired < 0 {
			return fmt.Errorf("telemetry: rule %q fired %d times", ru.Name, ru.Fired)
		}
		rules[ru.Name] = true
	}
	fired := make(map[string]int)
	for _, a := range d.Alerts {
		if !rules[a.Rule] {
			return fmt.Errorf("telemetry: alert references unknown rule %q", a.Rule)
		}
		if a.Start > a.End {
			return fmt.Errorf("telemetry: alert %q starts at %v after its end %v", a.Rule, a.Start, a.End)
		}
		if a.End > d.Horizon {
			return fmt.Errorf("telemetry: alert %q ends at %v past horizon %v", a.Rule, a.End, d.Horizon)
		}
		fired[a.Rule]++
	}
	for _, ru := range d.Rules {
		if fired[ru.Name] != ru.Fired {
			return fmt.Errorf("telemetry: rule %q lists %d fired, %d alerts present", ru.Name, ru.Fired, fired[ru.Name])
		}
	}
	return nil
}

// Section condenses the document into the run-report telemetry section.
func (d *Doc) Section() *prof.TelemetrySection {
	if d == nil {
		return nil
	}
	sec := &prof.TelemetrySection{
		Interval:    d.Interval,
		Series:      len(d.Series),
		Scrapes:     d.Scrapes,
		Requests:    d.Requests.Observed,
		Shed:        d.Requests.Shed,
		BadFraction: d.Requests.BadFraction,
		Exemplars:   len(d.Requests.Exemplars),
	}
	for _, s := range d.Series {
		sec.Samples += len(s.Values)
		sec.Dropped += s.Dropped
	}
	for _, ru := range d.Rules {
		sec.Rules = append(sec.Rules, prof.TelemetryRule{
			Name:  ru.Name,
			Short: ru.Short,
			Long:  ru.Long,
			Burn:  ru.Burn,
			Fired: ru.Fired,
		})
	}
	for _, a := range d.Alerts {
		sec.Alerts = append(sec.Alerts, prof.TelemetryAlert{
			Rule:  a.Rule,
			Start: a.Start,
			End:   a.End,
			Peak:  a.Peak,
		})
	}
	return sec
}
