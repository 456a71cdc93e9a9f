// Package cache is the adaptive feature-cache subsystem layered over
// featstore: an access tracker, an epoch-boundary (training) or interval
// (serving) shard rebalancer, and tiered hit accounting. The tracker runs
// only under a rebalancing policy (Manager.Dynamic): the static placement
// reads no hotness counter, so none is kept.
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
	"cmp"
	"fmt"
	"math"
	"slices"

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
	// Static keeps the offline presample placement: no access is tracked
	// and no rebalancing happens. This is the DSP-paper baseline.
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

// Config tunes the manager. The zero value is the Static (no-rebalance,
// untracked) policy.
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
	// Tiers are fleet-total committed read counts.
	Tiers Tiers
	// Rebalances counts rebalance passes; Promoted the rows moved into GPU
	// shards, each paired with one demoted out, so it is also the demotion
	// count; MovedBytes the promotion bytes charged to PCIe; RebalanceTime
	// the virtual time spent migrating.
	Rebalances    int
	Promoted      int64
	MovedBytes    int64
	RebalanceTime sim.Time
}

// Manager owns the adaptive cache state for one store. All methods run in
// engine context (the simulation is single-threaded), so no locking.
type Manager struct {
	store   *featstore.Store
	cfg     Config
	offsets []int64
	// counts[v] is v's EWMA-decayed access frequency (nil unless Dynamic);
	// prior[v] the normalized degree prior (nil unless DegreeHybrid).
	counts []float64
	prior  []float64
	view   *fault.View
	tracer *trace.Tracer
	pid    int
	stats  Stats
	// keys, promote and demote are the rebalancer's buffers, reused GPU
	// after GPU (see plan).
	keys, promote, demote []rankKey
}

// New builds a manager over a store. g supplies the degree prior; offsets
// are the per-GPU ownership ranges of the layout (promotion candidates for
// GPU g are its own range, as in the partitioned layout).
func New(store *featstore.Store, g *graph.CSR, offsets []int64, cfg Config) *Manager {
	m := &Manager{store: store, cfg: cfg.defaults(), offsets: offsets}
	if !m.Dynamic() {
		return m
	}
	n := store.NumRows()
	m.counts = make([]float64, n)
	if m.cfg.Policy == DegreeHybrid {
		m.prior = make([]float64, n)
		maxDeg := 1
		for v := 0; v < n; v++ {
			if d := g.Degree(graph.NodeID(v)); d > maxDeg {
				maxDeg = d
			}
		}
		for v := 0; v < n; v++ {
			m.prior[v] = float64(g.Degree(graph.NodeID(v))) / float64(maxDeg)
		}
	}
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
// every requested row into the hotness counters (when Dynamic), classifies
// the request by placement for requesting GPU g, and — when a membership
// view is attached — re-routes rows cached on dead GPUs to the host tier
// (the shard is unreachable; the master copy in host RAM is not).
//
// Tier counts are NOT committed here: compute them from the returned lists
// and call Account when the read actually completes, so aborted collective
// attempts do not double-count (the hotness counters deliberately do count
// every attempt — the access pattern is real even if the round retries).
func (m *Manager) Split(ids []graph.NodeID, g int) (local []graph.NodeID, remote [][]graph.NodeID, host []graph.NodeID) {
	m.track(ids)
	local, remote, host = m.store.Split(ids, g)
	for q := range remote {
		if len(remote[q]) > 0 && m.dead(q) {
			host = append(host, remote[q]...)
			remote[q] = nil
		}
	}
	return local, remote, host
}

// Tally is Split by counts, for a caller that reads only the lists' lengths
// and the host rows: in one pass over ids it records hotness, leaves in
// counts what Split's lists would hold — counts[g] local rows, counts[q]
// rows from peer q, counts[NumGPUs] host rows — and lists the host rows.
// counts must have NumGPUs+1 entries. A dead holder's rows are re-routed to
// the host as Split does (its own count zero, its rows listed after the
// others in GPU order); that costs a further pass per dead holder.
//
// The buffer contract: host is the caller's buffer, kept from call to call.
// Tally writes the list (Split's host list, in Split's order) into its
// storage when its capacity is at least len(ids), and otherwise into a new
// array with room for a quarter more, and returns it; the caller keeps the
// result as its buffer for the next call. The list is valid until then.
func (m *Manager) Tally(ids []graph.NodeID, g int, counts []int, host []graph.NodeID) []graph.NodeID {
	if cap(host) < len(ids) {
		// A quarter of headroom: the next request of the same shape differs
		// by a few per cent.
		host = make([]graph.NodeID, 0, len(ids)+len(ids)/4)
	}
	host = m.store.Tally(ids, g, counts, m.counts, host)
	n := m.store.NumGPUs
	for q := 0; q < n; q++ {
		if q != g && m.dead(q) && counts[q] > 0 {
			counts[n] += counts[q]
			counts[q] = 0
			host = m.store.AppendList(host, ids, g, q)
		}
	}
	return host
}

// track records every requested row into the hotness counters (when
// Dynamic).
func (m *Manager) track(ids []graph.NodeID) {
	if m.counts != nil {
		for _, v := range ids {
			m.counts[v]++
		}
	}
}

// dead reports whether GPU q's shard is unreachable under the attached view.
func (m *Manager) dead(q int) bool { return m.view != nil && !m.view.Alive(q) }

// CountTiers folds a Split result into tier counts.
func CountTiers(local []graph.NodeID, remote [][]graph.NodeID, host []graph.NodeID) Tiers {
	t := Tiers{Local: int64(len(local)), Host: int64(len(host))}
	for _, rq := range remote {
		t.Peer += int64(len(rq))
	}
	return t
}

// TallyTiers folds requesting GPU g's Tally counts into tier counts.
func TallyTiers(counts []int, g int) Tiers {
	n := len(counts) - 1
	t := Tiers{Local: int64(counts[g]), Host: int64(counts[n])}
	for q, c := range counts[:n] {
		if q != g {
			t.Peer += int64(c)
		}
	}
	return t
}

// Account commits requesting GPU g's tier counts into the fleet totals (call
// once per completed read; serving calls it when a round survives its
// collective attempts).
func (m *Manager) Account(_ int, t Tiers) { m.stats.Tiers.Add(t) }

// Stats returns a snapshot of the cumulative accounting.
func (m *Manager) Stats() Stats { return m.stats }

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

// rankKey is one row's place in a GPU's residency ranking: ascending keys
// run hottest first. hi is the score's float64 bits inverted: scores are
// non-negative, so their bits order as they do. lo breaks score ties —
// currently-held rows above unheld ones (hysteresis: a row is never
// displaced without evidence, so unobserved rows keep their offline
// placement), then by id — so the keys are a total order and no two rows
// tie.
type rankKey struct{ hi, lo uint64 }

func (k rankKey) id() graph.NodeID    { return graph.NodeID(uint32(k.lo)) }
func (k rankKey) held() bool          { return k.lo>>32 == 0 }
func (k rankKey) less(o rankKey) bool { return k.hi < o.hi || k.hi == o.hi && k.lo < o.lo }
func hotter(a, b rankKey) int         { return cmp.Or(cmp.Compare(a.hi, b.hi), cmp.Compare(a.lo, b.lo)) }
func colder(a, b rankKey) int         { return hotter(b, a) }

// plan returns GPU g's promotions, hottest first, and demotions, coldest
// first, for a shard of budget rows over its rows [lo, hi). The target
// shard is the budget hottest rows; promotions are its rows not yet held,
// demotions the held rows outside it, so the lists are equally long. Every
// score and holder is read once, into a key in the manager's buffer; a
// selection splits the target shard from the rest and only the two lists
// are sorted — the lists a full ranking gives, since no two keys tie.
func (m *Manager) plan(g int, lo, hi, budget int64) (promote, demote []rankKey) {
	keys := m.keys[:0]
	for v := lo; v < hi; v++ {
		d := uint64(m.store.Holder(graph.NodeID(v)) ^ g)
		unheld := (d | -d) >> 63 // 1 unless d is 0: held rows sit at random
		keys = append(keys, rankKey{^math.Float64bits(m.score(int(v))), unheld<<32 | uint64(v)})
	}
	selectHottest(keys, int(budget))
	promote, demote = m.promote[:0], m.demote[:0]
	for _, k := range keys[:budget] {
		if !k.held() {
			promote = append(promote, k)
		}
	}
	for _, k := range keys[budget:] {
		if k.held() {
			demote = append(demote, k)
		}
	}
	slices.SortFunc(promote, hotter)
	slices.SortFunc(demote, colder)
	m.keys, m.promote, m.demote = keys, promote, demote
	return promote, demote
}

// selectHottest reorders keys so that keys[:k] are the k hottest, in no
// particular order: Hoare's selection with a median-of-three pivot, which
// sorts what is left should it take more than 64 rounds.
func selectHottest(keys []rankKey, k int) {
	lo, hi := 0, len(keys)
	for round := 0; lo < k && k < hi; round++ {
		if round == 64 {
			slices.SortFunc(keys[lo:hi], hotter)
			return
		}
		// Order keys[lo], keys[mid], keys[hi-1]; the median is the pivot,
		// parked at hi-1 while the rest is split around it.
		mid := lo + (hi-lo)/2
		if keys[mid].less(keys[lo]) {
			keys[lo], keys[mid] = keys[mid], keys[lo]
		}
		if keys[hi-1].less(keys[lo]) {
			keys[lo], keys[hi-1] = keys[hi-1], keys[lo]
		}
		if keys[hi-1].less(keys[mid]) {
			keys[mid], keys[hi-1] = keys[hi-1], keys[mid]
		}
		keys[mid], keys[hi-1] = keys[hi-1], keys[mid]
		pivot, at := keys[hi-1], lo
		for j := lo; j < hi-1; j++ {
			if keys[j].less(pivot) {
				keys[at], keys[j] = keys[j], keys[at]
				at++
			}
		}
		keys[at], keys[hi-1] = keys[hi-1], keys[at]
		// keys[lo:at] are hotter than the pivot, now at at, and keys[at+1:hi]
		// colder; k lies in [lo, hi].
		if at < k {
			lo = at + 1
		} else {
			hi = at
		}
	}
}

// rebalanceGPU adapts GPU g's shard and returns the number of promoted rows.
func (m *Manager) rebalanceGPU(p *sim.Proc, fab *hw.Fabric, g int) int64 {
	lo, hi := m.offsets[g], m.offsets[g+1]
	budget := m.store.CachedRows[g]
	if budget <= 0 || budget >= hi-lo {
		return 0 // empty shard, or the whole range already fits
	}
	// Each promotion is paired with a demotion, so the shard size is
	// invariant.
	promote, demote := m.plan(g, lo, hi, budget)
	moves := len(promote) // == len(demote) by construction
	if moves > m.cfg.MaxMovesPerGPU {
		moves = m.cfg.MaxMovesPerGPU
	}
	if moves == 0 {
		return 0
	}
	for i := 0; i < moves; i++ {
		m.store.Demote(demote[i].id())
		m.store.Promote(promote[i].id(), g)
	}
	bytes := int64(moves) * int64(m.store.RowBytes())
	fab.HostDMA(p, g, bytes, hw.TrafficCache)
	m.stats.Promoted += int64(moves)
	m.stats.MovedBytes += bytes
	return int64(moves)
}
