package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// runScrapes drives a hub through a workload on a real engine: fn runs as
// a sim process alongside the scraper daemon, and the engine's final time
// is returned.
func runScrapes(h *Hub, fn func(p *sim.Proc)) sim.Time {
	eng := sim.NewEngine()
	h.Start(eng)
	eng.Go("workload", fn)
	end, err := eng.Run()
	if err != nil {
		panic(err)
	}
	return end
}

func TestScrapeCadenceAndKinds(t *testing.T) {
	h := New(Config{Interval: 1e-3})
	busy := 0.0
	h.Gauge("g", func(now sim.Time) float64 { return float64(now) })
	h.Counter("c", func(now sim.Time) float64 { return busy })
	h.Rate("r", func(now sim.Time) float64 { return busy })
	end := runScrapes(h, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1e-3)
			busy += 2e-3 // cumulative source grows 2e-3 per 1ms tick
		}
	})
	doc := h.Finish(end)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	// The workload spans 10ms; the scraper ticks every 1ms starting at
	// t=1ms. The daemon's own pending sleep does not extend the run.
	if doc.Scrapes < 9 || doc.Scrapes > 11 {
		t.Fatalf("scrapes %d, want ~10 over a 10ms run at 1ms cadence", doc.Scrapes)
	}
	byName := map[string]SeriesDoc{}
	for _, s := range doc.Series {
		byName[s.Name] = s
	}
	g := byName["g"]
	if g.Kind != "gauge" || len(g.Values) != doc.Scrapes {
		t.Fatalf("gauge series %+v", g)
	}
	// Gauge sample i was taken at (i+1)*interval and reads the clock.
	if got, want := g.Values[4], 5e-3; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("gauge value at tick 5 = %g, want %g", got, want)
	}
	// Rate: cumulative +2e-3 per 1ms tick → rate 2.0 once warm. The first
	// tick's delta depends on scheduling order; check a middle tick.
	r := byName["r"]
	if r.Kind != "rate" {
		t.Fatalf("rate series kind %q", r.Kind)
	}
	if got := r.Values[5]; got < 1.9 || got > 2.1 {
		t.Fatalf("rate value at tick 6 = %g, want ~2.0", got)
	}
	c := byName["c"]
	if c.Kind != "counter" || c.Values[len(c.Values)-1] < c.Values[0] {
		t.Fatalf("counter series not monotone: %+v", c.Values)
	}
}

func TestRingCapDropsOldSamples(t *testing.T) {
	h := New(Config{Interval: 1e-3, RingCap: 4})
	h.Gauge("g", func(now sim.Time) float64 { return float64(now) })
	end := runScrapes(h, func(p *sim.Proc) { p.Sleep(10e-3) })
	doc := h.Finish(end)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	s := doc.Series[0]
	if len(s.Values) != 4 {
		t.Fatalf("ring kept %d samples, cap 4", len(s.Values))
	}
	if s.Dropped != doc.Scrapes-4 || s.First != s.Dropped {
		t.Fatalf("dropped %d first %d with %d scrapes", s.Dropped, s.First, doc.Scrapes)
	}
	// The retained samples are the most recent ones, in order: the last
	// value must read the latest clock.
	last := s.Values[len(s.Values)-1]
	if prev := s.Values[len(s.Values)-2]; prev >= last {
		t.Fatalf("ring unroll out of order: %v", s.Values)
	}
}

func TestRegisterAfterScrapePanics(t *testing.T) {
	h := New(Config{Interval: 1e-3})
	h.Gauge("g", func(now sim.Time) float64 { return 0 })
	runScrapes(h, func(p *sim.Proc) { p.Sleep(2e-3) })
	defer func() {
		if recover() == nil {
			t.Fatal("late registration did not panic")
		}
	}()
	h.Gauge("late", func(now sim.Time) float64 { return 0 })
}

// feed drives the SLO stream: each virtual-time tick completes good
// in-SLO requests and bad over-SLO requests.
func feed(h *Hub, p *sim.Proc, ticks, good, bad int) {
	id := 0
	for i := 0; i < ticks; i++ {
		p.Sleep(1e-3)
		now := p.Now()
		for j := 0; j < good; j++ {
			h.ObserveRequest(RequestSample{
				ID: id, Arrival: now - 1e-3, Dispatch: now - 0.8e-3,
				Sampled: now - 0.6e-3, Loaded: now - 0.3e-3, Done: now,
			})
			id++
		}
		for j := 0; j < bad; j++ {
			h.ObserveRequest(RequestSample{
				ID: id, Arrival: now - 50e-3, Dispatch: now - 40e-3,
				Sampled: now - 30e-3, Loaded: now - 10e-3, Done: now,
			})
			id++
		}
	}
}

func TestBurnRateFiresOnBadStream(t *testing.T) {
	h := New(Config{Interval: 1e-3, SLO: 20e-3, Target: 0.99})
	var fired bool
	end := runScrapes(h, func(p *sim.Proc) {
		feed(h, p, 20, 9, 1) // 10% bad = burn 10x: above page 14.4? no — 10 < 14.4
		feed(h, p, 50, 1, 4) // 80% bad = burn 80x: pages
		if h.PageFiring() {
			fired = true
		}
		feed(h, p, 100, 10, 0) // recovery: page resets once windows drain
	})
	doc := h.Finish(end)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("PageFiring never true during the mostly-bad incident")
	}
	pages := 0
	for _, a := range doc.Alerts {
		if a.Page {
			pages++
			if a.Peak <= 14.4 {
				t.Fatalf("page alert peak burn %g not above threshold", a.Peak)
			}
			if a.End <= a.Start {
				t.Fatalf("alert interval [%g, %g] empty", a.Start, a.End)
			}
		}
	}
	if pages == 0 {
		t.Fatalf("no page alert in %+v", doc.Alerts)
	}
	if h.PageFiring() {
		t.Fatal("page still firing after 100 clean ticks")
	}
}

func TestBurnRateSilentOnHealthyStream(t *testing.T) {
	h := New(Config{Interval: 1e-3, SLO: 20e-3, Target: 0.99})
	end := runScrapes(h, func(p *sim.Proc) {
		feed(h, p, 200, 10, 0)
	})
	doc := h.Finish(end)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(doc.Alerts) != 0 {
		t.Fatalf("healthy stream fired %d alert(s): %+v", len(doc.Alerts), doc.Alerts)
	}
	if doc.Requests.BadFraction != 0 {
		t.Fatalf("bad fraction %g on all-good stream", doc.Requests.BadFraction)
	}
}

func TestBurnRateEmptyWindowCannotFire(t *testing.T) {
	h := New(Config{Interval: 1e-3})
	// Scrapes happen but no requests resolve at all: rules must stay
	// silent (burnOver reports ok=false on an empty window).
	end := runScrapes(h, func(p *sim.Proc) { p.Sleep(50e-3) })
	doc := h.Finish(end)
	if len(doc.Alerts) != 0 {
		t.Fatalf("alerts fired with zero traffic: %+v", doc.Alerts)
	}
}

func TestShedsSpendBudget(t *testing.T) {
	h := New(Config{Interval: 1e-3, SLO: 20e-3, Target: 0.99})
	end := runScrapes(h, func(p *sim.Proc) {
		// All completions are in-SLO, but 80% of offered load sheds: the
		// page must fire on shed spend alone.
		for i := 0; i < 50; i++ {
			p.Sleep(1e-3)
			now := p.Now()
			h.ObserveRequest(RequestSample{
				ID: i, Arrival: now - 1e-3, Dispatch: now - 0.8e-3,
				Sampled: now - 0.6e-3, Loaded: now - 0.3e-3, Done: now,
			})
			for j := 0; j < 4; j++ {
				h.ObserveShed(now)
			}
		}
	})
	doc := h.Finish(end)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if doc.Requests.Shed != 200 || doc.Requests.Observed != 50 {
		t.Fatalf("shed %d observed %d, want 200/50", doc.Requests.Shed, doc.Requests.Observed)
	}
	if len(doc.Alerts) == 0 {
		t.Fatal("80% shed rate fired no alert")
	}
}

func TestCriticalStageAttribution(t *testing.T) {
	h := New(Config{Interval: 1e-3})
	end := runScrapes(h, func(p *sim.Proc) {
		p.Sleep(1e-3)
		now := p.Now()
		// Gather dominates: 0.1/0.1/0.6/0.2 of a 1ms request.
		h.ObserveRequest(RequestSample{
			ID: 0, GPU: 1, Round: 7,
			Arrival: now - 1e-3, Dispatch: now - 0.9e-3,
			Sampled: now - 0.8e-3, Loaded: now - 0.2e-3, Done: now,
		})
	})
	doc := h.Finish(end)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, st := range doc.Requests.Stages {
		want := 0
		if st.Name == "gather" {
			want = 1
		}
		if st.Critical != want {
			t.Fatalf("stage %s critical %d, want %d", st.Name, st.Critical, want)
		}
	}
	if len(doc.Requests.Exemplars) != 1 {
		t.Fatalf("exemplars %+v", doc.Requests.Exemplars)
	}
	ex := doc.Requests.Exemplars[0]
	if ex.Critical != "gather" || ex.GPU != 1 || ex.Round != 7 {
		t.Fatalf("exemplar %+v", ex)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	build := func() []byte {
		h := New(Config{Interval: 1e-3, RingCap: 8})
		n := 0.0
		h.Gauge("q", func(now sim.Time) float64 { return n })
		h.Counter("c", func(now sim.Time) float64 { return 3 * n })
		end := runScrapes(h, func(p *sim.Proc) {
			feed(h, p, 30, 3, 2)
			n += 1
		})
		h.RecordEvent(end, "done", "workload finished")
		b, err := h.Finish(end).EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs encoded differently")
	}
	// Round trip: parse back and re-validate + re-encode byte-identically.
	doc, err := ParseDoc(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := doc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("parse → encode round trip not byte-identical")
	}
}

func TestNilHubSafe(t *testing.T) {
	var h *Hub
	if h.Enabled() {
		t.Fatal("nil hub enabled")
	}
	h.Gauge("g", nil)
	h.Counter("c", nil)
	h.Rate("r", nil)
	h.Start(nil)
	h.ObserveRequest(RequestSample{})
	h.ObserveShed(0)
	h.RecordEvent(0, "e", "")
	if h.PageFiring() {
		t.Fatal("nil hub firing")
	}
	if h.Finish(1) != nil {
		t.Fatal("nil hub finished to a doc")
	}
}

func TestFinishIdempotent(t *testing.T) {
	h := New(Config{Interval: 1e-3})
	end := runScrapes(h, func(p *sim.Proc) { p.Sleep(5e-3) })
	d1 := h.Finish(end)
	d2 := h.Finish(end + 1)
	if d1 != d2 {
		t.Fatal("repeated Finish built a new document")
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 5); got != "     " {
		t.Fatalf("empty sparkline %q", got)
	}
	flat := Sparkline([]float64{2, 2, 2}, 6)
	if flat != strings.Repeat("▁", 6) {
		t.Fatalf("constant sparkline %q", flat)
	}
	ramp := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if []rune(ramp)[0] != '▁' || []rune(ramp)[7] != '█' {
		t.Fatalf("ramp sparkline %q", ramp)
	}
	// Max-resample keeps a single spike visible when downsampling 100→10.
	vals := make([]float64, 100)
	vals[57] = 9
	spike := Sparkline(vals, 10)
	if !strings.ContainsRune(spike, '█') {
		t.Fatalf("downsampled spike lost: %q", spike)
	}
}

func TestRenderAndProm(t *testing.T) {
	h := New(Config{Interval: 1e-3})
	h.Gauge("serve/queue_depth", func(now sim.Time) float64 { return 4 })
	h.Counter("wire/sample_bytes", func(now sim.Time) float64 { return 1e6 })
	end := runScrapes(h, func(p *sim.Proc) {
		feed(h, p, 60, 1, 4) // fires the page rule
	})
	doc := h.Finish(end)
	var dash bytes.Buffer
	if err := doc.Render(&dash); err != nil {
		t.Fatal(err)
	}
	out := dash.String()
	for _, want := range []string{"serve/queue_depth", "wire/sample_bytes", "PAGE", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	var prom bytes.Buffer
	if err := doc.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	pout := prom.String()
	for _, want := range []string{
		"# TYPE dsp_serve_queue_depth gauge",
		"dsp_wire_sample_bytes_total",
		"dsp_requests_total",
		"dsp_alerts_fired_total{rule=\"page\"}",
	} {
		if !strings.Contains(pout, want) {
			t.Fatalf("prom export missing %q:\n%s", want, pout)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	h := New(Config{Interval: 1e-3})
	end := runScrapes(h, func(p *sim.Proc) { feed(h, p, 10, 2, 1) })
	good := h.Finish(end)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(d *Doc){
		"accounting": func(d *Doc) { d.Requests.Good++ },
		"schema":     func(d *Doc) { d.Schema = "dsp-telemetry/0" },
		"critical":   func(d *Doc) { d.Requests.Stages[0].Critical += 3 },
		"rule-fired": func(d *Doc) { d.Rules[0].Fired++ },
		"series":     func(d *Doc) { d.Series = append(d.Series, SeriesDoc{Name: "x", Kind: "sum"}) },
	} {
		b, err := good.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		d, err := ParseDoc(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		mutate(d)
		if d.Validate() == nil {
			t.Fatalf("%s corruption passed validation", name)
		}
	}
}

func TestSection(t *testing.T) {
	h := New(Config{Interval: 1e-3, RingCap: 4})
	h.Gauge("g", func(now sim.Time) float64 { return 1 })
	end := runScrapes(h, func(p *sim.Proc) { feed(h, p, 10, 2, 0) })
	sec := h.Finish(end).Section()
	if sec == nil || sec.Series != 1 || sec.Requests != 20 || len(sec.Rules) != 2 {
		t.Fatalf("section %+v", sec)
	}
	if sec.Samples != 4 || sec.Dropped != sec.Scrapes-4 {
		t.Fatalf("section samples %d dropped %d scrapes %d", sec.Samples, sec.Dropped, sec.Scrapes)
	}
}
