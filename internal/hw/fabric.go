package hw

import (
	"fmt"

	"repro/internal/sim"
)

// TrafficClass labels transfers for byte accounting, so experiments can
// report communication volume per purpose (Figure 1, Figure 11).
type TrafficClass int

const (
	// TrafficSample is graph-sampling traffic (frontiers, adjacency data).
	TrafficSample TrafficClass = iota
	// TrafficFeature is node-feature loading traffic.
	TrafficFeature
	// TrafficGradient is model-gradient allreduce traffic.
	TrafficGradient
	// TrafficCache is feature-cache maintenance traffic: rows migrated into
	// GPU shards by the adaptive cache rebalancer (internal/cache).
	TrafficCache
	// TrafficOther is everything else (seeds, metadata).
	TrafficOther

	numTrafficClasses
)

func (c TrafficClass) String() string {
	switch c {
	case TrafficSample:
		return "sample"
	case TrafficFeature:
		return "feature"
	case TrafficGradient:
		return "gradient"
	case TrafficCache:
		return "cache"
	default:
		return "other"
	}
}

// Counters accumulates wire and payload bytes per traffic class.
type Counters struct {
	// NVLinkBytes are wire bytes moved over NVLink (relayed hops counted
	// once per hop, as the hardware would).
	NVLinkBytes [numTrafficClasses]int64
	// PCIeBytes are wire bytes over PCIe, including UVA read amplification
	// (50 bytes on the wire per 32-byte payload request).
	PCIeBytes [numTrafficClasses]int64
	// UsefulBytes are the payload bytes the caller asked for.
	UsefulBytes [numTrafficClasses]int64
}

// TotalWire returns total wire bytes for a class across both fabrics.
func (c *Counters) TotalWire(class TrafficClass) int64 {
	return c.NVLinkBytes[class] + c.PCIeBytes[class]
}

// uvaPayload and uvaRequest describe the PCIe read-amplification model from
// EMOGI: the minimum PCIe read moves 32 payload bytes plus an 18-byte packet
// header, i.e. 50 wire bytes per request.
const (
	uvaPayload = 32
	uvaRequest = 50
)

// UVAWireBytes returns the wire bytes needed to read items objects of
// itemBytes each through UVA (zero-copy) over PCIe.
func UVAWireBytes(items int64, itemBytes int) int64 {
	if items <= 0 || itemBytes <= 0 {
		return 0
	}
	reqs := int64((itemBytes + uvaPayload - 1) / uvaPayload)
	return items * reqs * uvaRequest
}

// Fabric is the runtime interconnect: one FCFS server per NVLink link and
// per PCIe switch uplink, plus byte counters. All transfer methods must be
// called from simulation processes.
type Fabric struct {
	Topo     *Topology
	Counters Counters

	linkRes   []*sim.Resource // parallel to Topo.Links
	switchRes []*sim.Resource // per PCIe switch
	linkScale []float64       // per-link bandwidth multiplier (fault injection); nil = all 1
}

// SetLinkScale sets a bandwidth multiplier for NVLink link li (1 = healthy,
// 0.25 = degraded to a quarter of nominal). Used by the fault injector to
// model link degradation; transfers already queued keep their old duration.
func (f *Fabric) SetLinkScale(li int, scale float64) {
	if scale <= 0 {
		panic("hw: link scale must be positive")
	}
	if f.linkScale == nil {
		f.linkScale = make([]float64, len(f.Topo.Links))
		for i := range f.linkScale {
			f.linkScale[i] = 1
		}
	}
	f.linkScale[li] = scale
}

func (f *Fabric) scaleOf(li int) float64 {
	if f.linkScale == nil {
		return 1
	}
	return f.linkScale[li]
}

// SeizeLink occupies NVLink link li exclusively for dur virtual seconds,
// modelling a link outage (partition): in-flight transfers finish, then all
// traffic routed over the link queues behind the outage and drains when it
// lifts. Must be called from a simulation process.
func (f *Fabric) SeizeLink(p *sim.Proc, li int, dur sim.Time) {
	f.linkRes[li].Use(p, 1, dur)
}

// NewFabric instantiates the runtime fabric for a topology on an engine.
func NewFabric(eng *sim.Engine, topo *Topology) *Fabric {
	f := &Fabric{Topo: topo}
	f.linkRes = make([]*sim.Resource, len(topo.Links))
	for i := range f.linkRes {
		f.linkRes[i] = eng.NewResource(1)
	}
	f.switchRes = make([]*sim.Resource, topo.NumSwitches)
	for i := range f.switchRes {
		f.switchRes[i] = eng.NewResource(1)
	}
	return f
}

// Transfer moves bytes from GPU src to GPU dst over NVLink, relaying through
// intermediate GPUs when the pair has no direct link (the paper observes
// multi-hop NVLink still beats PCIe). src == dst is free. It panics if the
// GPUs are NVLink-unreachable (cannot happen on DGX-1 with >=2 GPUs).
func (f *Fabric) Transfer(p *sim.Proc, src, dst int, bytes int64, class TrafficClass) {
	if src == dst || bytes <= 0 {
		return
	}
	// Walk the routing table hop by hop rather than through Topo.Route, which
	// allocates the path: this runs once per message.
	for cur := src; cur != dst; {
		next := f.Topo.nextHop[cur][dst]
		if next < 0 {
			panic(fmt.Sprintf("hw: no NVLink route %d->%d", src, dst))
		}
		li := f.Topo.NVLinkIndex(cur, next)
		l := f.Topo.Links[li]
		dur := sim.Time(float64(bytes)/(l.Bandwidth*float64(l.Lanes)*f.scaleOf(li))) + sim.Time(l.Latency)
		f.linkRes[li].Use(p, 1, dur)
		f.Counters.NVLinkBytes[class] += bytes
		cur = next
	}
	f.Counters.UsefulBytes[class] += bytes
}

// uvaEfficiency is the fraction of peak PCIe bandwidth that irregular
// zero-copy reads achieve: UVA graph access is latency-bound (many
// outstanding small requests), reaching roughly a third of the streaming
// rate on V100-class systems (EMOGI reports similar gaps).
const uvaEfficiency = 0.35

// UVARead performs zero-copy reads of items objects of itemBytes each from
// host memory into GPU gpu, paying full read amplification, reduced
// effective bandwidth, and sharing the GPU's PCIe switch uplink with its
// neighbour.
func (f *Fabric) UVARead(p *sim.Proc, gpu int, items int64, itemBytes int, class TrafficClass) {
	if items <= 0 || itemBytes <= 0 {
		return
	}
	wire := UVAWireBytes(items, itemBytes)
	sw := f.Topo.SwitchOf[gpu]
	dur := sim.Time(float64(wire)/(f.Topo.PCIeBandwidth*uvaEfficiency)) + sim.Time(f.Topo.PCIeLatency)
	f.switchRes[sw].Use(p, 1, dur)
	f.Counters.PCIeBytes[class] += wire
	f.Counters.UsefulBytes[class] += items * int64(itemBytes)
}

// HostDMA performs a bulk, contiguous DMA copy of bytes between host memory
// and GPU gpu (no read amplification — used for staged copies of assembled
// mini-batches, as the CPU-sampling baselines do).
func (f *Fabric) HostDMA(p *sim.Proc, gpu int, bytes int64, class TrafficClass) {
	if bytes <= 0 {
		return
	}
	sw := f.Topo.SwitchOf[gpu]
	dur := sim.Time(float64(bytes)/f.Topo.PCIeBandwidth) + sim.Time(f.Topo.PCIeLatency)
	f.switchRes[sw].Use(p, 1, dur)
	f.Counters.PCIeBytes[class] += bytes
	f.Counters.UsefulBytes[class] += bytes
}
