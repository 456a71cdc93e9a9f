// Package strategy is the execution-strategy layer and the only place a
// round body or a substrate is written. A round body is the per-round
// gather/forward/backward orchestration that sits between the pipeline
// (which decides WHEN stages run) and the substrate (hw devices, comm
// collectives, featstore placement — which decide what they COST); the
// substrate is one machine's assembled system (Build). Training
// (internal/core, one machine or every machine of a cluster) and serving
// (internal/serve) all call Build and run the same bodies: training is
// Load + Train, serving is Load + Infer.
//
// Two strategies are provided. DSP is the paper's layout — row-partitioned
// hot/cold feature caching with an all-to-all gather, cold rows sharded
// across machines when the machine belongs to a cluster. P3 is the
// hybrid-parallel alternative of the P3-GNN line of work: each GPU holds a
// [#Nodes, F/world] dimension slice of EVERY feature row, the first layer
// runs model-parallel over those slices, and the layer-1 boundary is a
// push-pull exchange (push partial activations forward, pull activation
// gradients back) instead of a feature gather. Which layout wins depends on
// feature width: P3's exchange volume is O(hidden) per input node regardless
// of F, DSP's is O(F) on the cache-miss fraction — dspbench strategy-sweep
// measures the crossover.
//
// Both strategies run IDENTICAL real math (the canonical full-width gather
// and dense layers under RealCompute): the layout changes what the
// simulated wire and kernels cost, never the values, so same-seed runs of
// DSP and P3 reach bit-identical parameters.
package strategy

import (
	"fmt"
	"strings"

	"repro/internal/arena"
	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/train"
)

// Kind names a selectable execution strategy.
type Kind string

const (
	// KindDSP is the paper's row-partitioned hot/cold layout (default).
	KindDSP Kind = "dsp"
	// KindP3 is the dimension-partitioned push-pull layout.
	KindP3 Kind = "p3"
)

// Parse resolves a -strategy flag value, case-insensitively ("" means dsp).
func Parse(s string) (Kind, error) {
	switch Kind(strings.ToLower(s)) {
	case "", KindDSP:
		return KindDSP, nil
	case KindP3:
		return KindP3, nil
	default:
		return "", fmt.Errorf("strategy: unknown strategy %q (want dsp or p3)", s)
	}
}

// Loaded is the loader's payload for the forward pass: the sampled batch,
// under RealCompute its gathered input features, and the row-cache tier
// counts of the gather (zero under p3, which has no row cache).
type Loaded struct {
	MB    *sample.MiniBatch
	Feats []float32
	Tiers cache.Tiers
}

// ExecutionStrategy owns one round's gather/forward/backward orchestration
// on one rank. Sampling stays with the CSP world — both layouts sample the
// same way over the same partitioned topology — so the strategy's surface
// is the stages whose cost the layout actually changes.
type ExecutionStrategy interface {
	// Kind identifies the strategy.
	Kind() Kind
	// Load fetches (DSP) or exchanges (P3) what the forward pass needs for
	// one sampled batch, over the given loader communicator.
	Load(p *sim.Proc, rank int, mb *sample.MiniBatch, lc *comm.Communicator) Loaded
	// Infer runs the forward-only pass over a loaded batch and returns the
	// per-seed argmax predictions (nil in cost-only mode).
	Infer(p *sim.Proc, rank int, l Loaded) []int32
	// Train runs one training step: forward remainder, backward, and the
	// gradient allreduce.
	Train(p *sim.Proc, rank int, l Loaded, st *train.EpochStats)
	// Count adds the strategy's own cumulative counters and its layout
	// description to a substrate snapshot. DSP adds nothing: its accounting
	// is the fabric's and the cache's, and its reports carry no strategy
	// section.
	Count(c *train.Counters)
}

// replica is what both layouts share on one machine: the options, the
// model replicas, the trainer (nil when serving) and the pooled, offloaded
// staging of the canonical feature gather.
type replica struct {
	Opts    train.Options
	M       *hw.Machine
	Models  []*nn.Model
	Trainer *train.Trainer

	// pool recycles gather staging buffers (RealCompute feature assembly);
	// par offloads their fill between DES commit points.
	pool arena.Pool
	par  *sim.ParallelGroup
}

// stage starts the real feature gather on a worker thread so it overlaps the
// virtual-time choreography of Load; the caller Joins the ticket before
// returning the buffer. A Load that unwinds first (an aborted serve round)
// just drops the buffer: it must never be recycled un-joined.
func (r *replica) stage(mb *sample.MiniBatch) ([]float32, *sim.Ticket) {
	if !r.Opts.RealCompute {
		return nil, nil
	}
	d := r.Opts.Data
	feats := r.pool.Get(len(mb.InputNodes()) * d.FeatDim)
	return feats, r.par.Submit(func() { train.GatherFeaturesInto(feats, d, mb) })
}

// infer is the forward-only pass both layouts share; flops is the layout's
// nominal compute charge.
func (r *replica) infer(p *sim.Proc, rank int, l Loaded, flops int64) []int32 {
	var preds []int32
	if len(l.MB.Seeds) > 0 {
		dev := r.M.GPUs[rank]
		dev.RunKernel(p, hw.KernelGather, nn.NominalAggBytes(r.Opts.Model, l.MB))
		dev.RunKernel(p, hw.KernelCompute, flops)
		if r.Opts.RealCompute {
			logits, _ := r.Models[rank].Forward(l.MB, l.Feats)
			preds = make([]int32, logits.R)
			for i := range preds {
				row := logits.Row(i)
				best := 0
				for j := 1; j < len(row); j++ {
					if row[j] > row[best] {
						best = j
					}
				}
				preds[i] = int32(best)
			}
		}
	}
	r.pool.Put(l.Feats) // the pass has consumed the staged gather
	return preds
}

// train is the data-parallel step both layouts share, then the staged
// gather's recycling.
func (r *replica) train(p *sim.Proc, rank int, l Loaded, st *train.EpochStats,
	grad comm.Opts, nominal func(nn.Config, *sample.MiniBatch) int64) {
	r.Trainer.Step(p, r.M.GPUs[rank], rank, l.MB, l.Feats, st, grad, nominal)
	r.pool.Put(l.Feats) // the step has consumed the staged gather
}
