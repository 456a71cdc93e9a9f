package strategy

import (
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/featstore"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/train"
)

// P3 is the hybrid-parallel execution strategy: features live
// dimension-partitioned ([#Nodes, F/world] slab per GPU, featstore's
// DimSliced layout), the first layer runs model-parallel over the column
// slices, and the layer-1 boundary exchanges activations instead of
// features — push partial activations to each batch's owner in the forward
// pass, pull activation gradients back to each W1-shard holder in the
// backward pass. Cross-GPU volume per input node is O(hidden), independent
// of the feature width, which is the whole bet against DSP's O(F) gather.
//
// The math is canonical: under RealCompute the full-width features are
// gathered and the standard dense layers run, so P3 reaches parameters
// bit-identical to DSP at the same seed. Only the simulated wire and
// kernel costs follow the P3 layout.
type P3 struct {
	replica
	Store *featstore.Store // DimSliced

	// Cumulative exchange accounting for Count and the trace
	// counter series (mutated from per-GPU procs; the DES is cooperative).
	pushWire     int64
	pullWire     int64
	partialFlops int64
	reduceBytes  int64
}

// Kind implements ExecutionStrategy.
func (s *P3) Kind() Kind { return KindP3 }

// hidden0 is the first layer's output width — the per-node element count
// both exchanges carry.
func (s *P3) hidden0() int {
	if s.Opts.Model.Layers == 1 {
		return s.Opts.Model.Classes
	}
	return s.Opts.Model.Hidden
}

// denseFactor is the flops-per-(node x in x out) coefficient of one dense
// layer: SAGE projects self and neighbour separately.
func denseFactor(arch nn.Arch) int64 {
	if arch == nn.SAGE {
		return 4
	}
	return 2
}

// Load implements ExecutionStrategy: the forward half of the push-pull
// exchange stands where DSP's feature gather would be — allgather of every
// batch's input ids, local slab gathers plus partial first-layer projections
// for all of them, the partial-activation push all-to-all home to each
// batch's owner, and the local reduction of the incoming partials.
func (s *P3) Load(p *sim.Proc, rank int, mb *sample.MiniBatch, lc *comm.Communicator) Loaded {
	ids := mb.InputNodes()
	feats, gather := s.stage(mb)
	dev := s.M.GPUs[rank]
	n := lc.N
	if n == 1 {
		// A single GPU holds the full width: a plain local gather.
		dev.RunKernel(p, hw.KernelGather, int64(len(ids))*int64(s.Store.RowBytes()))
		gather.Join()
		return Loaded{MB: mb, Feats: feats}
	}
	h0 := s.hidden0()
	slice := s.Store.SliceDim(rank)
	// Every rank learns every batch's input set (the ids ride the feature
	// class, like DSP's request all-to-all). Only the set sizes are read, so
	// only the counts move.
	out := make([]int, n)
	for q := range out {
		if q != rank {
			out[q] = len(ids)
		}
	}
	sizes := comm.AllToAllCounts(lc, p, rank, out, nil, comm.Raw(4, hw.TrafficFeature))
	sizes[rank] = len(ids)
	// Model-parallel first layer: gather the local column slice of every
	// batch's inputs and project through the local W1 column shard.
	push := make([]int, n)
	factor := denseFactor(s.Opts.Model.Arch)
	for q := 0; q < n; q++ {
		mq := sizes[q]
		if mq == 0 {
			continue
		}
		dev.RunKernel(p, hw.KernelGather, int64(mq)*int64(slice)*4)
		flops := factor * int64(mq) * int64(slice) * int64(h0)
		dev.RunKernel(p, hw.KernelCompute, flops)
		s.partialFlops += flops
		if q != rank {
			push[q] = mq * h0
		}
	}
	// Push the partial activations home to each batch's owner (modelled:
	// only the element counts move).
	comm.AllToAllCounts(lc, p, rank, push, nil, comm.Compressed(s.Opts.FeatCodec, hw.TrafficFeature))
	for _, elems := range push {
		s.pushWire += compress.WireBytes(s.Opts.FeatCodec, elems)
	}
	// Reduce the n-1 incoming partials into the locally computed one.
	if len(ids) > 0 {
		red := int64(n-1) * int64(len(ids)) * int64(h0) * 4
		dev.RunKernel(p, hw.KernelGather, red)
		s.reduceBytes += red
	}
	s.traceCounter(dev, "p3 push", s.pushWire)
	gather.Join()
	return Loaded{MB: mb, Feats: feats}
}

// firstDense is the first layer's projection products in the step's price
// (nn.LayerFlops). P3's exchange charges that work instead of the trainer and
// inference kernels — the partial projections in Load, and in training the
// pull's weight-gradient shards, the same size again — so both net it out.
// A single GPU exchanges nothing and nets out nothing.
func (s *P3) firstDense(mb *sample.MiniBatch) int64 {
	if len(s.M.GPUs) == 1 {
		return 0
	}
	_, _, dense := nn.LayerFlops(s.Opts.Model, 0, mb.Blocks[0])
	return dense
}

// Infer implements ExecutionStrategy: the forward pass net of the first
// layer's projection.
func (s *P3) Infer(p *sim.Proc, rank int, l Loaded) []int32 {
	return s.infer(p, rank, l, s.firstDense(l.MB))
}

// Train implements ExecutionStrategy: pull the layer-1 activation gradients
// back to every W1-shard holder, then run the data-parallel remainder with
// the sharded first-layer weights priced off the allreduce ring.
func (s *P3) Train(p *sim.Proc, rank int, l Loaded, st *train.EpochStats) {
	t := s.Trainer
	dev := s.M.GPUs[rank]
	n := t.Comm.N
	h0 := s.hidden0()
	if n > 1 {
		// Backward pull: the batch owner's layer-1 activation gradients go
		// to every peer, each of which grinds out its W1 column shard's
		// gradient for that batch.
		elems := len(l.MB.InputNodes()) * h0
		out := make([]int, n)
		for q := 0; q < n; q++ {
			if q != rank {
				out[q] = elems
			}
		}
		in := comm.AllToAllCounts(t.Comm, p, rank, out, nil, comm.Compressed(s.Opts.GradCodec, hw.TrafficGradient))
		factor := denseFactor(s.Opts.Model.Arch)
		slice := int64(s.Store.SliceDim(rank))
		for q := 0; q < n; q++ {
			if q == rank {
				continue
			}
			s.pullWire += compress.WireBytes(s.Opts.GradCodec, elems)
			// The received element count recovers peer q's batch size.
			if mq := in[q] / h0; mq > 0 {
				dev.RunKernel(p, hw.KernelCompute, factor*int64(mq)*slice*int64(h0))
			}
		}
		s.traceCounter(dev, "p3 pull", s.pullWire)
	}
	// The canonical math of train.Trainer.Step: full-width features, full
	// dense layers, full-vector allreduce. Only the wire PRICE of the
	// sharded first-layer weights changes (PriceElems) — the values reduced
	// are identical to DSP's, so replicas of the two strategies stay bitwise
	// equal at the same seed. The step's kernel nets out the first layer's
	// projection and weight-gradient products, which the loader and the pull
	// have charged.
	grad := s.Opts.GradOpts()
	grad.PriceElems = s.priceElems()
	s.train(p, rank, l, st, grad, 2*s.firstDense(l.MB))
}

// priceElems is the allreduce element count the wire is charged for: the
// full gradient vector minus the first layer's dimension-sharded dense
// weights, which are replica-local under P3 and never ride the ring.
func (s *P3) priceElems() int {
	pe := s.Trainer.Params - s.shardedParams()
	if pe < 1 {
		pe = 1
	}
	return pe
}

// shardedParams counts the first-layer dense weight elements P3 shards by
// column: SAGE projects self and neighbour separately (two InDim x h0
// matrices); the other archs have one. Biases and attention vectors stay
// replicated.
func (s *P3) shardedParams() int {
	k := 1
	if s.Opts.Model.Arch == nn.SAGE {
		k = 2
	}
	return k * s.Opts.Model.InDim * s.hidden0()
}

// traceCounter emits the cumulative push/pull wire-byte counter series into
// the Chrome trace, where a trace viewer charts the exchange volume over
// time.
func (s *P3) traceCounter(dev *hw.Device, name string, bytes int64) {
	if dev.Tracer.Enabled() {
		dev.Tracer.Counter(name, dev.ID, float64(s.M.Eng.Now()), map[string]float64{
			"bytes": float64(bytes),
		})
	}
}

// Count implements ExecutionStrategy.
func (s *P3) Count(c *train.Counters) {
	c.PushWire, c.PullWire = s.pushWire, s.pullWire
	c.PartialFlops, c.ReduceBytes = s.partialFlops, s.reduceBytes
	c.Layout = &prof.StrategySection{
		Name:          string(KindP3),
		FeatureDim:    s.Opts.Data.FeatDim,
		ShardedParams: s.shardedParams(),
	}
	for g := 0; g < s.Store.NumGPUs; g++ {
		c.Layout.SliceDims = append(c.Layout.SliceDims, s.Store.SliceDim(g))
	}
}
