package hw

import "repro/internal/sim"

// NetworkSpec describes the inter-machine interconnect of a cluster.
type NetworkSpec struct {
	// Bandwidth is per-NIC bytes/second per direction (100 Gb/s InfiniBand
	// EDR: 12.5 GB/s).
	Bandwidth float64
	// Latency is the per-message cost.
	Latency float64
}

// InfiniBandEDR returns the default cluster interconnect spec.
func InfiniBandEDR() NetworkSpec {
	return NetworkSpec{Bandwidth: 12.5e9, Latency: 2e-6}
}

// Network is the runtime inter-machine fabric: one FCFS server per NIC
// direction pair, plus byte accounting.
type Network struct {
	Spec NetworkSpec
	// Bytes counts wire traffic per traffic class; Sent the same bytes per
	// sending machine, so each machine's substrate can report its own share.
	Bytes [numTrafficClasses]int64
	Sent  []int64

	nics []*sim.Resource // one per machine (send side serializes)
}

// NewNetwork creates the fabric for machines NICs.
func NewNetwork(eng *sim.Engine, machines int, spec NetworkSpec) *Network {
	n := &Network{Spec: spec, Sent: make([]int64, machines)}
	for i := 0; i < machines; i++ {
		n.nics = append(n.nics, eng.NewResource(1))
	}
	return n
}

// Send moves bytes from machine src to machine dst, serialising on the
// sender's NIC (receive-side contention is folded into the same budget).
func (n *Network) Send(p *sim.Proc, src, dst int, bytes int64, class TrafficClass) {
	if src == dst || bytes <= 0 {
		return
	}
	dur := sim.Time(float64(bytes)/n.Spec.Bandwidth) + sim.Time(n.Spec.Latency)
	n.nics[src].Use(p, 1, dur)
	n.Bytes[class] += bytes
	n.Sent[src] += bytes
}

// Cluster is a group of identical machines joined by a Network, sharing one
// simulation engine.
type Cluster struct {
	Eng      *sim.Engine
	Machines []*Machine
	Net      *Network
}

// NewCluster builds machines x gpusEach DGX-1-class servers on one engine.
func NewCluster(machines, gpusEach int, gpu GPUSpec, cpu CPUSpec, net NetworkSpec, latencyDiv float64) *Cluster {
	eng := sim.NewEngine()
	c := &Cluster{Eng: eng}
	if latencyDiv > 1 {
		net.Latency /= latencyDiv
	}
	c.Net = NewNetwork(eng, machines, net)
	for i := 0; i < machines; i++ {
		m := NewMachineOn(eng, gpusEach, gpu, cpu, latencyDiv)
		m.Cluster, m.Index = c, i
		c.Machines = append(c.Machines, m)
	}
	return c
}
