package core

import (
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// A cluster follows paper §3.2: "DSP replicates the graph topology and hot
// features across the machines and partitions the cold features among the
// machines. Thus, the machines only communicate for cold features and model
// synchronization."
//
// What is written here is only what a cluster adds to the machines'
// substrates — the hierarchical gradient reducer (intra-machine NVLink
// allreduce, inter-machine ring over the NICs between machine leaders,
// cluster barrier). The striding of each shard's batches across machines is
// train.Schedule.Step; cold rows owned by another machine's CPU memory cross the NIC
// inside strategy.DSP.Load.

// clusterReduction is the inter-machine rendezvous the machines' reducers
// share.
type clusterReduction struct {
	net     *hw.Network
	intra   []*comm.Communicator // each machine's trainer communicator
	barrier *sim.Barrier
	slots   [][]float32 // each machine leader's posted sum
}

// clusterReducer is machine's hierarchical gradient reduction.
type clusterReducer struct {
	*clusterReduction
	machine int
}

// installClusterReducer puts every machine's trainer under the hierarchical
// reducer, averaging over the cluster's replicas.
func installClusterReducer(subs []*strategy.Substrate) {
	cl := subs[0].M.Cluster
	world := len(subs) * len(subs[0].M.GPUs)
	c := &clusterReduction{net: cl.Net, barrier: cl.Eng.NewBarrier(world), slots: make([][]float32, len(subs))}
	for m, sub := range subs {
		c.intra = append(c.intra, sub.Trainer.Comm)
		sub.Trainer.Reduce = clusterReducer{c, m}
		sub.Trainer.World = world
	}
}

// AllReduceSum implements train.Reducer: an intra-machine allreduce over
// NVLink (codec-aware: the machine sum already carries the gradient codec's
// quantisation error), then an inter-machine ring between machine leaders
// (rank 0), then the global sum is re-established on every replica. The
// rendezvous is a full cluster barrier: trainer steps are aligned across
// machines. Each leader posts its machine sum as the remote machines would
// decode it (codec round-trip), so the cross-machine reduction is lossy
// exactly once per hop and every replica still sums identical images.
func (r clusterReducer) AllReduceSum(p *sim.Proc, rank int, grad []float32, o comm.Opts) {
	r.intra[r.machine].AllReduceSum(p, rank, grad, o)
	if rank == 0 {
		posted := compress.Roundtrip(o.Codec, grad)
		r.slots[r.machine] = append(r.slots[r.machine][:0], posted...)
		r.leaderRing(p, len(grad), o)
	}
	r.barrier.Arrive(p)
	// Deterministic global sum from the posted machine sums.
	for i := range grad {
		var sum float32
		for _, slot := range r.slots {
			sum += slot[i]
		}
		grad[i] = sum
	}
	r.barrier.Arrive(p)
}

// AllReduceCount implements train.Reducer for a gradient whose values nobody
// reads: AllReduceSum's collectives at the same bytes — the intra-machine
// count, the leaders' NIC ring, both cluster barriers — with no sum formed.
func (r clusterReducer) AllReduceCount(p *sim.Proc, rank, n int, o comm.Opts) {
	r.intra[r.machine].AllReduceCount(p, rank, n, o)
	if rank == 0 {
		r.leaderRing(p, n, o)
	}
	r.barrier.Arrive(p)
	r.barrier.Arrive(p)
}

// leaderRing sends machine leader's share of the inter-machine ring over the
// NICs: 2(machines-1) steps of the codec-priced n-element sum split over the
// machines.
func (r clusterReducer) leaderRing(p *sim.Proc, n int, o comm.Opts) {
	machines := len(r.intra)
	next := (r.machine + 1) % machines
	bytes := max(compress.WireBytes(o.Codec, n)/int64(machines), 1)
	for step := 0; step < 2*(machines-1); step++ {
		r.net.Send(p, r.machine, next, bytes, hw.TrafficGradient)
	}
}
