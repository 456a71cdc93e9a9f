package telemetry

import "repro/internal/sim"

// Rule is one multi-window burn-rate alert rule in the Google SRE style:
// it fires when the error-budget burn rate exceeds Burn over BOTH the
// short and the long lookback window. The short window makes the alert
// reset quickly once the incident ends; the long window keeps one noisy
// tick from paging.
//
// Burn rate is (window error fraction) / (error budget), where the
// error fraction counts over-SLO completions and shed requests against
// all requests resolved in the window, and the budget is 1 - Target.
// A burn of 1 means the budget is being spent exactly at the sustainable
// rate; Burn thresholds well above 1 catch fast incidents.
type Rule struct {
	Name string
	// Short and Long are the two lookback windows (virtual time).
	Short sim.Time
	Long  sim.Time
	// Burn is the threshold both windows must exceed.
	Burn float64
	// Page marks the rule as paging severity: the fleet autoscaler
	// treats a firing page as an immediate scale-up signal and
	// suppresses drains while it fires.
	Page bool
}

// DefaultRules are the classic fast-page + slow-ticket pair, scaled from
// wall-clock SRE practice (5m/1h at 14.4x, 30m/6h at 6x) onto the
// sub-second virtual timelines the simulator runs: the window ratio and
// burn thresholds are preserved, the absolute durations shrink by the
// same factor the workloads do.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "page", Short: 5e-3, Long: 60e-3, Burn: 14.4, Page: true},
		{Name: "ticket", Short: 30e-3, Long: 360e-3, Burn: 6, Page: false},
	}
}

// Alert is one closed firing interval of a rule.
type Alert struct {
	Rule  string
	Page  bool
	Start sim.Time
	End   sim.Time
	// Peak is the highest burn rate (min of the two windows) seen while
	// firing.
	Peak float64
}

// tick snapshots the cumulative SLO stream at one scrape instant.
type tick struct {
	at        sim.Time
	good, bad int
}

// ruleState is the live evaluation state of one rule.
type ruleState struct {
	Rule   Rule
	firing bool
	start  sim.Time
	peak   float64
	fired  int
}

func (h *Hub) budget() float64 { return 1 - h.cfg.Target }

// burnOver computes the burn rate over the lookback window w ending at
// tick index i. The window is clamped to available history (a 60ms
// window 10ms into the run looks at the whole 10ms). The second return
// is false when the window resolved no requests at all — a rule cannot
// fire on an empty window.
func (h *Hub) burnOver(i int, w sim.Time) (float64, bool) {
	steps := int(float64(w)/float64(h.cfg.Interval) + 0.5)
	if steps < 1 {
		steps = 1
	}
	var g0, b0 int
	if j := i - steps; j >= 0 {
		g0, b0 = h.ticks[j].good, h.ticks[j].bad
	}
	g := h.ticks[i].good - g0
	b := h.ticks[i].bad - b0
	if g+b == 0 {
		return 0, false
	}
	return float64(b) / float64(g+b) / h.budget(), true
}

// evalRules advances every rule's firing state at the scrape that just
// appended tick len(ticks)-1.
func (h *Hub) evalRules(now sim.Time) {
	i := len(h.ticks) - 1
	for ri := range h.rules {
		rs := &h.rules[ri]
		bs, okS := h.burnOver(i, rs.Rule.Short)
		bl, okL := h.burnOver(i, rs.Rule.Long)
		firing := okS && okL && bs > rs.Rule.Burn && bl > rs.Rule.Burn
		burn := bs
		if bl < burn {
			burn = bl
		}
		switch {
		case firing && !rs.firing:
			rs.firing, rs.start, rs.peak = true, now, burn
		case firing:
			if burn > rs.peak {
				rs.peak = burn
			}
		case rs.firing:
			h.closeAlert(rs, now)
		}
	}
}

func (h *Hub) closeAlert(rs *ruleState, end sim.Time) {
	rs.firing = false
	rs.fired++
	h.alerts = append(h.alerts, Alert{
		Rule:  rs.Rule.Name,
		Page:  rs.Rule.Page,
		Start: rs.start,
		End:   end,
		Peak:  rs.peak,
	})
}

// PageFiring reports whether any paging-severity rule is firing as of
// the last scrape. The fleet autoscaler consumes this: a firing page
// forces a scale-up and suppresses drains.
func (h *Hub) PageFiring() bool {
	if h == nil {
		return false
	}
	for i := range h.rules {
		if h.rules[i].firing && h.rules[i].Rule.Page {
			return true
		}
	}
	return false
}
