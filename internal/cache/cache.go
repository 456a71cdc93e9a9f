// Package cache is the adaptive feature-cache subsystem layered over
// featstore: an always-on access tracker, an epoch-boundary (training) or
// interval (serving) shard rebalancer, and tiered hit accounting.
//
// DSP's tailored data layout picks each GPU's hot rows once, offline, by a
// presample score (degree by default). Under workload drift — popularity
// shifts in serving, frontier skew across training epochs — that static
// placement decays toward host-fetch latency. The manager here closes the
// loop: every gather feeds EWMA-decayed per-row hotness counters, and at
// rebalance points the hottest cold rows of each GPU's own id range are
// promoted into its shard while the coldest cached rows are demoted, keeping
// the per-GPU row budget constant. Promotion traffic is charged to the
// simulated PCIe fabric (hw.TrafficCache), so adaptation overhead is visible
// in virtual time, not free.
//
// Everything is deterministic: counters are plain per-node float64 slices,
// candidate rankings break ties by node id, and rebalances run at seeded
// virtual times — two same-seed runs produce bit-identical placements, tier
// counts and migration byte totals.
package cache

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Policy selects how the rebalancer ranks candidate rows.
type Policy int

const (
	// Static keeps the offline presample placement: the tracker still
	// records accesses (for accounting) but no rebalancing happens. This is
	// the DSP-paper baseline.
	Static Policy = iota
	// LFUDecay ranks rows purely by the EWMA-decayed access frequency.
	LFUDecay
	// DegreeHybrid adds a normalized degree prior to the decayed frequency,
	// so rows with no observations yet still rank by the offline score
	// (useful early, before the tracker warms up): a max-degree row with no
	// observations ranks like a row observed once.
	DegreeHybrid
)

func (p Policy) String() string {
	switch p {
	case LFUDecay:
		return "lfu-decay"
	case DegreeHybrid:
		return "degree-hybrid"
	default:
		return "static"
	}
}

// ParsePolicy maps CLI spellings to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "static", "":
		return Static, nil
	case "lfu", "lfu-decay":
		return LFUDecay, nil
	case "hybrid", "degree-hybrid":
		return DegreeHybrid, nil
	default:
		return Static, fmt.Errorf("cache: unknown policy %q (want static, lfu or hybrid)", s)
	}
}

// Tiers counts feature-row reads by placement tier: the requesting GPU's own
// cache, a peer GPU's cache over NVLink, or host memory over PCIe.
type Tiers struct {
	Local, Peer, Host int64
}

// Total is the number of rows read.
func (t Tiers) Total() int64 { return t.Local + t.Peer + t.Host }

// HitRate is the fraction served by any GPU cache (local or peer).
func (t Tiers) HitRate() float64 {
	if tot := t.Total(); tot > 0 {
		return float64(t.Local+t.Peer) / float64(tot)
	}
	return 0
}

// Add accumulates o into t.
func (t *Tiers) Add(o Tiers) {
	t.Local += o.Local
	t.Peer += o.Peer
	t.Host += o.Host
}

// Config tunes the manager. The zero value is a valid always-on tracker with
// the Static (no-rebalance) policy.
type Config struct {
	Policy Policy
	// Decay multiplies every hotness counter at each rebalance (EWMA with a
	// per-rebalance half-life; default 0.5). Must be in (0, 1].
	Decay float64
	// MaxMovesPerGPU caps promotions per GPU per rebalance, bounding the
	// migration burst a single rebalance may charge (default 1024).
	MaxMovesPerGPU int
}

func (c Config) defaults() Config {
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = 0.5
	}
	if c.MaxMovesPerGPU <= 0 {
		c.MaxMovesPerGPU = 1024
	}
	return c
}

// Stats is the manager's cumulative accounting.
type Stats struct {
	// Tiers are fleet-total committed read counts; PerGPU the per-requester
	// components they sum from.
	Tiers  Tiers
	PerGPU []Tiers
	// Rebalances counts rebalance passes; Promoted/Demoted the rows moved
	// in/out of GPU shards; MovedBytes the promotion bytes charged to PCIe;
	// RebalanceTime the virtual time spent migrating.
	Rebalances    int
	Promoted      int64
	Demoted       int64
	MovedBytes    int64
	RebalanceTime sim.Time
}

// Clone returns a deep copy (PerGPU is a fresh slice).
func (s Stats) Clone() Stats {
	s.PerGPU = append([]Tiers(nil), s.PerGPU...)
	return s
}

// Manager owns the adaptive cache state for one store. All methods run in
// engine context (the simulation is single-threaded), so no locking.
type Manager struct {
	store   *featstore.Store
	cfg     Config
	offsets []int64
	// counts[v] is v's EWMA-decayed access frequency; prior[v] the
	// normalized degree prior.
	counts []float64
	prior  []float64
	view   *fault.View
	tracer *trace.Tracer
	pid    int
	stats  Stats
}

// New builds a manager over a store. g supplies the degree prior; offsets
// are the per-GPU ownership ranges of the layout (promotion candidates for
// GPU g are its own range, as in the partitioned layout).
func New(store *featstore.Store, g *graph.CSR, offsets []int64, cfg Config) *Manager {
	n := store.NumRows()
	m := &Manager{
		store:   store,
		cfg:     cfg.defaults(),
		offsets: offsets,
		counts:  make([]float64, n),
		prior:   make([]float64, n),
	}
	maxDeg := 1
	for v := 0; v < n; v++ {
		if d := g.Degree(graph.NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	for v := 0; v < n; v++ {
		m.prior[v] = float64(g.Degree(graph.NodeID(v))) / float64(maxDeg)
	}
	m.stats.PerGPU = make([]Tiers, store.NumGPUs)
	return m
}

// SetView attaches the fleet-membership view: dead GPUs are skipped by the
// rebalancer, and Split re-routes reads of their shards to host memory.
func (m *Manager) SetView(v *fault.View) { m.view = v }

// SetTracer attaches a tracer; rebalances emit counter samples and instant
// markers on process lane pid.
func (m *Manager) SetTracer(t *trace.Tracer, pid int) {
	m.tracer = t
	m.pid = pid
}

// Policy returns the configured policy.
func (m *Manager) Policy() Policy { return m.cfg.Policy }

// Dynamic reports whether rebalancing is active: a non-static policy over a
// partitioned store (the other layouts have no per-GPU shards to rebalance).
func (m *Manager) Dynamic() bool {
	return m.cfg.Policy != Static && m.store.Layout == featstore.Partitioned
}

// Split is the tracked replacement for featstore.Store.Split: it records
// every requested row into the hotness counters, classifies the request by
// placement for requesting GPU g, and — when a membership view is attached —
// re-routes rows cached on dead GPUs to the host tier (the shard is
// unreachable; the master copy in host RAM is not).
//
// Tier counts are NOT committed here: compute them from the returned lists
// and call Account when the read actually completes, so aborted collective
// attempts do not double-count (the hotness counters deliberately do count
// every attempt — the access pattern is real even if the round retries).
func (m *Manager) Split(ids []graph.NodeID, g int) (local []graph.NodeID, remote [][]graph.NodeID, host []graph.NodeID) {
	for _, v := range ids {
		m.counts[v]++
	}
	local, remote, host = m.store.Split(ids, g)
	if m.view != nil {
		for q := range remote {
			if len(remote[q]) > 0 && !m.view.Alive(q) {
				host = append(host, remote[q]...)
				remote[q] = nil
			}
		}
	}
	return local, remote, host
}

// CountTiers folds a Split result into tier counts.
func CountTiers(local []graph.NodeID, remote [][]graph.NodeID, host []graph.NodeID) Tiers {
	t := Tiers{Local: int64(len(local)), Host: int64(len(host))}
	for _, rq := range remote {
		t.Peer += int64(len(rq))
	}
	return t
}

// Account commits tier counts for requesting GPU g (call once per completed
// read; serving calls it when a round survives its collective attempts).
func (m *Manager) Account(g int, t Tiers) {
	m.stats.PerGPU[g].Add(t)
	m.stats.Tiers.Add(t)
}

// Stats returns a snapshot of the cumulative accounting.
func (m *Manager) Stats() Stats { return m.stats.Clone() }

// score ranks row v for shard residency under the configured policy.
func (m *Manager) score(v int) float64 {
	if m.cfg.Policy == DegreeHybrid {
		return m.counts[v] + m.prior[v]
	}
	return m.counts[v]
}

// Rebalance runs one adaptation pass: for every live GPU, promote the
// hottest uncached rows of its own id range into its shard and demote the
// coldest cached rows, one-for-one, so the row budget set at build time
// never changes. Promotions are staged host→GPU copies charged to the PCIe
// fabric as hw.TrafficCache; demotions are free (the row is dropped, its
// master copy lives in host memory). After the pass every hotness counter
// decays by cfg.Decay, so the tracker follows drift instead of averaging
// over all history. A no-op under Static policy or non-partitioned layouts.
func (m *Manager) Rebalance(p *sim.Proc, fab *hw.Fabric) {
	if !m.Dynamic() {
		return
	}
	t0 := p.Now()
	var promoted int64
	for g := 0; g < m.store.NumGPUs; g++ {
		if m.view != nil && !m.view.Alive(g) {
			continue // dead shard: unreachable, reads already fall back to host
		}
		promoted += m.rebalanceGPU(p, fab, g)
	}
	for v := range m.counts {
		m.counts[v] *= m.cfg.Decay
	}
	m.stats.Rebalances++
	m.stats.RebalanceTime += p.Now() - t0
	if m.tracer.Enabled() {
		m.tracer.Counter("cache-tiers", m.pid, float64(p.Now()), map[string]float64{
			"local": float64(m.stats.Tiers.Local),
			"peer":  float64(m.stats.Tiers.Peer),
			"host":  float64(m.stats.Tiers.Host),
		})
		m.tracer.Instant("rebalance", "cache", m.pid, 0, float64(p.Now()), "g",
			map[string]string{
				"promoted": fmt.Sprint(promoted),
				"bytes":    fmt.Sprint(promoted * int64(m.store.RowBytes())),
			})
	}
}

// rebalanceGPU adapts GPU g's shard and returns the number of promoted rows.
func (m *Manager) rebalanceGPU(p *sim.Proc, fab *hw.Fabric, g int) int64 {
	lo, hi := m.offsets[g], m.offsets[g+1]
	budget := m.store.CachedRows[g]
	if budget <= 0 || budget >= hi-lo {
		return 0 // empty shard, or the whole range already fits
	}
	ids := make([]graph.NodeID, 0, hi-lo)
	for v := lo; v < hi; v++ {
		ids = append(ids, graph.NodeID(v))
	}
	// Hottest first. Score ties rank currently-held rows above unheld ones
	// (hysteresis: a row is never displaced without evidence, so unobserved
	// rows keep their offline placement), then break by id for determinism.
	sort.SliceStable(ids, func(a, b int) bool {
		sa, sb := m.score(int(ids[a])), m.score(int(ids[b]))
		if sa != sb {
			return sa > sb
		}
		ha, hb := m.store.Holder(ids[a]) == g, m.store.Holder(ids[b]) == g
		if ha != hb {
			return ha
		}
		return ids[a] < ids[b]
	})
	// The target shard is the top `budget` rows. Promotions are target rows
	// not yet held; each is paired with the coldest held row outside the
	// target, so the shard size is invariant.
	var promote, demote []graph.NodeID
	for _, v := range ids[:budget] {
		if m.store.Holder(v) != g {
			promote = append(promote, v)
		}
	}
	for i := len(ids) - 1; i >= int(budget); i-- { // coldest first
		if m.store.Holder(ids[i]) == g {
			demote = append(demote, ids[i])
		}
	}
	moves := len(promote) // == len(demote) by construction
	if moves > m.cfg.MaxMovesPerGPU {
		moves = m.cfg.MaxMovesPerGPU
	}
	if moves == 0 {
		return 0
	}
	for i := 0; i < moves; i++ {
		m.store.Demote(demote[i])
		m.store.Promote(promote[i], g)
	}
	bytes := int64(moves) * int64(m.store.RowBytes())
	fab.HostDMA(p, g, bytes, hw.TrafficCache)
	m.stats.Promoted += int64(moves)
	m.stats.Demoted += int64(moves)
	m.stats.MovedBytes += bytes
	return int64(moves)
}
