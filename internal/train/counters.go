package train

import (
	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/sim"
)

// Counters is the one set of run facts a substrate counts: wire bytes per
// traffic class, feature-read tiers and cache adaptation, out-of-core store
// activity, codec raw-versus-wire bytes and the strategy's own exchanges.
// strategy.Substrate.Counters takes the cumulative snapshot; everything else
// is arithmetic on it — an epoch is after.Sub(before), an epoch of segments,
// a run of epochs and a router of fleets are Adds — and Render is the only
// code that turns the numbers into report sections. EpochStats and
// serve.Report embed it, so the field names are theirs too.
type Counters struct {
	// Wire bytes (NVLink + PCIe) per traffic class; InterWire is what this
	// machine put on the cluster NIC (multi-machine runs only).
	SampleWire, FeatureWire, GradWire int64
	InterWire                         int64
	// Feature rows read from the local GPU cache, a peer GPU over NVLink,
	// and host memory (internal/cache's tracker).
	CacheLocal, CachePeer, CacheHost int64
	// Cache adaptation: rebalance passes, rows promoted into GPU shards,
	// the migration bytes charged to PCIe and the virtual time the passes
	// took. All zero under the static policy.
	Rebalances                    int
	CachePromoted, RebalanceBytes int64
	RebalanceTime                 sim.Time
	// Out-of-core store activity (zero without OOC): block touches served
	// from or missed by the host block cache, bytes fetched inline by
	// stalled readers and by the prefetcher, prefetches issued and later
	// used, reader stall time, and the spill device's reads.
	StoreHits, StoreMisses                 int64
	StoreDemandBytes, StorePrefetchBytes   int64
	StorePrefetchIssued, StorePrefetchUsed int64
	StoreStall                             sim.Time
	StoreDeviceReads, StoreDeviceBytes     int64
	// Codec is the raw-versus-charged bytes of every codec-bearing
	// collective, by traffic class, over all of the substrate's
	// communicators.
	Codec [hw.TrafficOther + 1]comm.CompressionStats
	// P3's exchange: partial-activation push and activation-gradient pull
	// wire bytes, model-parallel first-layer flops, partial-reduction kernel
	// bytes. Zero under dsp.
	PushWire, PullWire        int64
	PartialFlops, ReduceBytes int64

	// What was read, not how much: the cache policy, the store's gauges
	// (block table, budget, resident/spilled bytes; nil without OOC) and the
	// strategy's layout (nil under dsp) as section templates Render
	// completes. Not additive: Add keeps the later operand's, Sub the
	// receiver's.
	CachePolicy cache.Policy
	Store       *prof.StoreSection
	Layout      *prof.StrategySection
}

// FabricCounters reads the per-class wire totals of the machines' fabrics:
// everything a baseline system counts, and the wire part of a substrate's
// snapshot.
func FabricCounters(ms ...*hw.Machine) Counters {
	var c Counters
	for _, m := range ms {
		f := &m.Fabric.Counters
		c.SampleWire += f.TotalWire(hw.TrafficSample)
		c.FeatureWire += f.TotalWire(hw.TrafficFeature)
		c.GradWire += f.TotalWire(hw.TrafficGradient)
	}
	return c
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.combine(o, 1)
	c.CachePolicy = o.CachePolicy
	if o.Store != nil {
		c.Store = o.Store
	}
	if o.Layout != nil {
		c.Layout = o.Layout
	}
}

// Sub returns c minus the earlier snapshot o.
func (c Counters) Sub(o Counters) Counters {
	c.combine(o, -1)
	return c
}

// combine is c += k*o over the additive fields (k is ±1, so the float
// fields stay exact).
func (c *Counters) combine(o Counters, k int64) {
	c.SampleWire += k * o.SampleWire
	c.FeatureWire += k * o.FeatureWire
	c.GradWire += k * o.GradWire
	c.InterWire += k * o.InterWire
	c.CacheLocal += k * o.CacheLocal
	c.CachePeer += k * o.CachePeer
	c.CacheHost += k * o.CacheHost
	c.Rebalances += int(k) * o.Rebalances
	c.CachePromoted += k * o.CachePromoted
	c.RebalanceBytes += k * o.RebalanceBytes
	c.RebalanceTime += sim.Time(sim.Time(k) * o.RebalanceTime)
	c.StoreHits += k * o.StoreHits
	c.StoreMisses += k * o.StoreMisses
	c.StoreDemandBytes += k * o.StoreDemandBytes
	c.StorePrefetchBytes += k * o.StorePrefetchBytes
	c.StorePrefetchIssued += k * o.StorePrefetchIssued
	c.StorePrefetchUsed += k * o.StorePrefetchUsed
	c.StoreStall += sim.Time(sim.Time(k) * o.StoreStall)
	c.StoreDeviceReads += k * o.StoreDeviceReads
	c.StoreDeviceBytes += k * o.StoreDeviceBytes
	for class, cs := range o.Codec {
		c.Codec[class].Raw += k * cs.Raw
		c.Codec[class].Wire += k * cs.Wire
	}
	c.PushWire += k * o.PushWire
	c.PullWire += k * o.PullWire
	c.PartialFlops += k * o.PartialFlops
	c.ReduceBytes += k * o.ReduceBytes
}

// frac is num/den, 0 when den is 0.
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// CacheHitRate is the fraction of feature rows served from any GPU cache
// (local or NVLink peer) rather than host memory.
func (c Counters) CacheHitRate() float64 {
	return frac(c.CacheLocal+c.CachePeer, c.CacheLocal+c.CachePeer+c.CacheHost)
}

// StoreHitRate is the fraction of block touches the host block cache served.
func (c Counters) StoreHitRate() float64 { return frac(c.StoreHits, c.StoreHits+c.StoreMisses) }

// PrefetchAccuracy is the fraction of issued prefetches a reader later used.
func (c Counters) PrefetchAccuracy() float64 {
	return frac(c.StorePrefetchUsed, c.StorePrefetchIssued)
}

// Render fills r's wire, compression, cache, store and strategy sections —
// the sections every run report (training, serving, fleet) shares — from c.
// Sections with nothing counted are omitted.
func (c Counters) Render(r *prof.RunReport) {
	r.Wire = prof.Wire{Sample: c.SampleWire, Feature: c.FeatureWire, Grad: c.GradWire, Inter: c.InterWire}
	for class, cs := range c.Codec {
		if cs.Raw == 0 && cs.Wire == 0 {
			continue
		}
		if r.Compression == nil {
			r.Compression = map[string]prof.WireStat{}
		}
		r.Compression[hw.TrafficClass(class).String()] = prof.WireStat{Raw: cs.Raw, Wire: cs.Wire}
	}
	if c.CacheLocal+c.CachePeer+c.CacheHost > 0 {
		r.Cache = &prof.CacheReport{
			Policy:        c.CachePolicy.String(),
			Local:         c.CacheLocal,
			Peer:          c.CachePeer,
			Host:          c.CacheHost,
			HitRate:       c.CacheHitRate(),
			Promoted:      c.CachePromoted,
			MovedBytes:    c.RebalanceBytes,
			Rebalances:    c.Rebalances,
			RebalanceTime: float64(c.RebalanceTime),
		}
	}
	if c.Store != nil && (c.StoreHits+c.StoreMisses > 0 || c.StorePrefetchIssued > 0) {
		s := *c.Store
		s.Hits, s.Misses, s.HitRate = c.StoreHits, c.StoreMisses, c.StoreHitRate()
		s.DemandBytes, s.PrefetchBytes = c.StoreDemandBytes, c.StorePrefetchBytes
		s.PrefetchIssued, s.PrefetchUsed = c.StorePrefetchIssued, c.StorePrefetchUsed
		s.PrefetchAccuracy = c.PrefetchAccuracy()
		s.StallTime = float64(c.StoreStall)
		s.DeviceReads, s.DeviceBytes = c.StoreDeviceReads, c.StoreDeviceBytes
		r.Store = &s
	}
	if c.Layout != nil {
		s := *c.Layout
		s.PushBytes, s.PullBytes = c.PushWire, c.PullWire
		s.PartialFlops, s.ReduceBytes = c.PartialFlops, c.ReduceBytes
		r.Strategy = &s
	}
}
