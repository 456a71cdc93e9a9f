package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// sparkRunes are the eight block heights of an ASCII sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkWidth is the rendered width of every sparkline column.
const sparkWidth = 60

// Sparkline renders values as a fixed-width block-character strip. The
// series is resampled to width columns (max over each column's bucket,
// so short spikes survive downsampling) and scaled to the series' own
// min..max range. An empty or constant series renders as a flat line.
func Sparkline(values []float64, width int) string {
	if width <= 0 {
		width = sparkWidth
	}
	if len(values) == 0 {
		return strings.Repeat(" ", width)
	}
	cols := resampleMax(values, width)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range cols {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	if math.IsInf(span, 0) {
		// The series spans more than MaxFloat64: scale it by a half, which
		// keeps every difference finite and every fraction in [0, 1].
		lo, span = lo/2, hi/2-lo/2
		for i := range cols {
			cols[i] /= 2
		}
	}
	var b strings.Builder
	for _, v := range cols {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// resampleMax maps values onto width columns, each column taking the max
// of its share of the input.
func resampleMax(values []float64, width int) []float64 {
	out := make([]float64, width)
	if len(values) <= width {
		// Stretch: column i reads value i*len/width.
		for i := range out {
			out[i] = values[i*len(values)/width]
		}
		return out
	}
	for i := range out {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		m := values[lo]
		for _, v := range values[lo:hi] {
			if v > m {
				m = v
			}
		}
		out[i] = m
	}
	return out
}

// Render writes the full dashboard: one sparkline row per series, the
// request/stage summary with the p99 exemplar drill-down, the alert
// timeline and any recorded events.
func (d *Doc) Render(w io.Writer) error {
	p := func(format string, args ...interface{}) {
		fmt.Fprintf(w, format, args...)
	}
	p("telemetry %s  horizon %.6gs  interval %.6gs  scrapes %d  slo %.6gs  target %.4g\n",
		d.Schema, d.Horizon, d.Interval, d.Scrapes, d.SLO, d.Target)
	p("\nseries\n")
	for _, s := range d.Series {
		var lo, hi, last float64
		if len(s.Values) > 0 {
			lo, hi = math.Inf(1), math.Inf(-1)
			for _, v := range s.Values {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			last = s.Values[len(s.Values)-1]
		}
		dropNote := ""
		if s.Dropped > 0 {
			dropNote = fmt.Sprintf("  (dropped %d)", s.Dropped)
		}
		p("  %-32s %-7s %s  min %-12.6g max %-12.6g last %-12.6g%s\n",
			s.Name, s.Kind, Sparkline(s.Values, sparkWidth), lo, hi, last, dropNote)
	}

	r := d.Requests
	p("\nrequests  observed %d  good %d  bad %d  shed %d  bad-fraction %.4f\n",
		r.Observed, r.Good, r.Bad, r.Shed, r.BadFraction)
	if r.Latency.Count > 0 {
		p("latency   mean %.6gs  p50 %.6gs  p95 %.6gs  p99 %.6gs  max %.6gs\n",
			r.Latency.Mean, r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.Max)
	}
	for _, st := range r.Stages {
		frac := 0.0
		if r.Observed > 0 {
			frac = float64(st.Critical) / float64(r.Observed)
		}
		p("  stage %-8s critical %5.1f%%  mean %.6gs  p99 %.6gs\n",
			st.Name, 100*frac, st.Duration.Mean, st.Duration.P99)
	}
	if len(r.Exemplars) > 0 {
		p("\np99 drill-down (worst request per latency bucket, highest first)\n")
		for _, ex := range r.Exemplars {
			p("  req %-6d gpu %d round %-5d lat %.6gs  critical=%-8s queue %.6gs sample %.6gs gather %.6gs forward %.6gs\n",
				ex.ID, ex.GPU, ex.Round, ex.Latency, ex.Critical, ex.Queue, ex.Sample, ex.Gather, ex.Forward)
		}
	}

	p("\nalerts\n")
	if len(d.Alerts) == 0 {
		p("  none fired\n")
	}
	for _, a := range d.Alerts {
		sev := "ticket"
		if a.Page {
			sev = "PAGE"
		}
		p("  %-6s %-8s [%s]  %.6gs → %.6gs  peak burn %.3gx\n",
			sev, a.Rule, alertTimeline(a, d.Horizon, sparkWidth), a.Start, a.End, a.Peak)
	}
	for _, ru := range d.Rules {
		p("  rule %-8s short %.6gs long %.6gs burn>%.4gx  fired %d\n",
			ru.Name, ru.Short, ru.Long, ru.Burn, ru.Fired)
	}

	if len(d.Events) > 0 {
		p("\nevents\n")
		for _, e := range d.Events {
			p("  %.6gs  %-12s %s\n", e.At, e.Name, e.Detail)
		}
	}
	return nil
}

// alertTimeline draws one alert's firing interval on a [0,horizon]
// strip.
func alertTimeline(a AlertDoc, horizon float64, width int) string {
	if horizon <= 0 {
		return strings.Repeat("·", width)
	}
	lo := int(a.Start / horizon * float64(width))
	hi := int(a.End / horizon * float64(width))
	if hi >= width {
		hi = width - 1
	}
	if lo > hi {
		lo = hi
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		if i >= lo && i <= hi {
			b.WriteRune('█')
		} else {
			b.WriteRune('·')
		}
	}
	return b.String()
}
