// Package baselines implements the four GNN training systems the paper
// compares DSP against, plus the FastGCN CPU implementation used for the
// layer-wise sampling comparison (Table 7). All baselines execute the same
// BSP training logic as DSP on the same prepared data — identical graph
// samples, identical gradients — and differ only in WHERE sampling runs and
// HOW data moves:
//
//	PyG       — CPU sampling (PyTorch-Geometric efficiency), CPU feature
//	            gather, staged PCIe copies to the GPUs, sequential stages.
//	DGL-CPU   — CPU sampling with DGL's faster kernels, otherwise as PyG.
//	DGL-UVA   — GPU sampling over UVA (zero-copy reads of CPU-resident
//	            topology, full read amplification); features cached on GPU
//	            only when ALL of them fit one GPU, else UVA per row.
//	Quiver    — UVA sampling like DGL-UVA plus a replicated hot-feature
//	            cache, paying cudaMalloc/cudaFree overhead per batch (the
//	            inefficiency the paper measured).
//	FastGCN   — TensorFlow-style CPU layer-wise sampling: per batch and
//	            layer it scans every node's probability, which is why the
//	            paper reports runtimes orders of magnitude above DSP.
package baselines

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/featstore"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/train"
)

// Kind selects a baseline system.
type Kind int

const (
	// PyG is PyTorch Geometric v2.0 (CPU sampling).
	PyG Kind = iota
	// DGLCPU is DGL v0.8 with CPU sampling.
	DGLCPU
	// DGLUVA is DGL v0.8 with GPU UVA sampling.
	DGLUVA
	// Quiver is torch-quiver v0.1 (UVA sampling + replicated GPU cache).
	Quiver
	// FastGCN is the TensorFlow FastGCN used in Table 7 (CPU layer-wise).
	FastGCN
)

func (k Kind) String() string {
	switch k {
	case PyG:
		return "PyG"
	case DGLCPU:
		return "DGL-CPU"
	case DGLUVA:
		return "DGL-UVA"
	case Quiver:
		return "Quiver"
	case FastGCN:
		return "FastGCN"
	default:
		return "unknown"
	}
}

// Parse resolves a system name to its Kind: Kind.String() case-insensitively,
// the hyphen optional ("dgl-uva", "DGLUVA").
func Parse(name string) (Kind, error) {
	fold := func(s string) string { return strings.ReplaceAll(strings.ToLower(s), "-", "") }
	for k := PyG; k <= FastGCN; k++ {
		if fold(name) == fold(k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("baselines: unknown system %q", name)
}

// Per-system CPU sampling parameters: worker threads per GPU process and
// relative kernel efficiency (PyG's Python-heavy path does less work per
// core-second than DGL's C++ kernels).
const (
	// PyG spawns many Python DataLoader workers per GPU process; they are
	// core-hungry but only half as efficient per core as DGL's C++
	// samplers, so 1-GPU sampling speed matches DGL (paper Table 6) while
	// multi-GPU contention saturates the 64 cores almost immediately
	// (paper: "the GPUs contend for limited CPU threads").
	pygWorkersPerGPU = 48
	pygEfficiency    = 0.5
	// PyG's Python-side feature collation is slower than DGL's.
	pygGatherPenalty = 2.5
	dglWorkersPerGPU = 24
	dglEfficiency    = 1.0
	// Quiver calls cudaMalloc/cudaFree for sampling buffers: one
	// allocation per layer per stage plus the batch assembly.
	quiverMallocsPerLayer = 2
	quiverMallocsPerBatch = 2
	// FastGCN evaluates the layer-wise proposal distribution over every
	// node in the graph for each batch and layer, at this per-core scan
	// rate (nodes/second).
	fastgcnScanRate = 6e6
)

// Baseline is one of the comparison systems on a simulated machine.
type Baseline struct {
	Kind Kind
	Opts train.Options

	m       *hw.Machine
	trainer *train.Trainer
	sched   train.Schedule

	// cache is the replicated GPU feature cache of DGL-UVA (every row or
	// none) and Quiver (the globally hottest rows); nil for the CPU systems.
	cache *featstore.Store
	// dedup: reusable block builder for the reference sampler. Safe to share
	// across ranks — sampling runs serially on the engine thread and each
	// BuildBlock fully resets its marks before returning.
	dedup *sample.Deduper
}

// deduper lazily builds the shared block-builder scratch.
func (b *Baseline) deduper() *sample.Deduper {
	if b.dedup == nil {
		b.dedup = sample.NewDeduper(b.Opts.Data.G.NumNodes())
	}
	return b.dedup
}

// New builds a baseline system instance. A baseline has one fixed data layout
// and no fault driver, so it refuses the DSP options it would otherwise drop
// silently, naming the field and its CLI flag. Pipeline, UseCCC, GradCodec and
// Parallel are accepted: the system comparisons pass them to every system.
func New(kind Kind, opts train.Options) (*Baseline, error) {
	strat, serr := strategy.Parse(opts.Strategy)
	for _, o := range []struct {
		set         bool
		field, flag string
	}{
		{opts.DynamicCache != cache.Static, "DynamicCache", "-cache"},
		{opts.FeatureCacheBudget > 0, "FeatureCacheBudget", "-cache-budget"},
		{opts.FeatCodec != nil, "FeatCodec", "-compress-feat"},
		{opts.CompressTopology, "CompressTopology", "-graph-compress"},
		{opts.OOC, "OOC", "-ooc"},
		{opts.OOCBudget > 0, "OOCBudget", "-ooc-budget"},
		{opts.OOCNoPrefetch, "OOCNoPrefetch", "-ooc-no-prefetch"},
		{serr != nil || strat != strategy.KindDSP, "Strategy", "-strategy"},
		{len(opts.Faults) > 0, "Faults", "-faults"},
	} {
		if o.set {
			return nil, fmt.Errorf("baselines: %s does not honour %s (%s)", kind, o.field, o.flag)
		}
	}
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d := opts.Data
	b := &Baseline{Kind: kind, Opts: opts}
	b.m = hw.NewMachineScaled(d.NumGPUs(), opts.GPU, hw.XeonE5(), opts.LatencyScale)
	b.m.Eng.SetParallelism(opts.Parallel)
	b.trainer = train.NewTrainer(opts, comm.New(b.m))
	b.sched = train.NewSchedule(d, opts.BatchSize)
	if opts.RealCompute {
		d.Features() // drawn at build, not inside a timed epoch
	}
	if kind == DGLUVA || kind == Quiver {
		// Quiver replicates the globally hottest rows within one GPU's
		// budget. "DGL-UVA allows feature caching but requires all node
		// features to fit in the memory of a single GPU": every row, when
		// the budget takes them all, or none.
		budget := b.m.GPUs[0].MemFree() * 9 / 10
		if kind == DGLUVA && d.FeatureBytes() > budget {
			budget = 0
		}
		b.cache = featstore.BuildReplicated(d.G, d.Features, d.FeatDim, d.NumGPUs(), budget, featstore.ByDegree)
		for g, dev := range b.m.GPUs {
			if err := dev.Reserve(b.cache.CacheBytes(g)); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// Name implements train.System.
func (b *Baseline) Name() string { return b.Kind.String() }

// Machine implements train.System.
func (b *Baseline) Machine() *hw.Machine { return b.m }

// Model implements train.System.
func (b *Baseline) Model() *nn.Model {
	if len(b.trainer.Models) == 0 {
		return nil
	}
	return b.trainer.Models[0]
}

// Replicas returns every per-GPU model replica (empty in cost-only mode).
func (b *Baseline) Replicas() []*nn.Model { return b.trainer.Models }

// cpuWorkers returns sampling threads per GPU worker process for the CPU
// systems; total demand beyond the 64 host cores contends FCFS, which is
// exactly why these systems stop scaling with GPU count.
func (b *Baseline) cpuWorkers() (threads int, efficiency float64) {
	if b.Kind == PyG {
		return pygWorkersPerGPU, pygEfficiency
	}
	return dglWorkersPerGPU, dglEfficiency
}

// sampleStage draws the batch's graph sample and charges the system's
// sampling cost.
func (b *Baseline) sampleStage(p *sim.Proc, rank, epoch, step int) *sample.MiniBatch {
	d := b.Opts.Data
	seeds := b.sched.Batch(d, b.Opts.Seed, epoch, step, rank)
	mb := sample.ReferenceInto(b.deduper(), d.G, seeds, b.Opts.Sample, train.BatchSeed(b.Opts.Seed, epoch, step, rank))
	dev := b.m.GPUs[rank]
	switch b.Kind {
	case PyG, DGLCPU:
		threads, eff := b.cpuWorkers()
		work := int64(float64(mb.NumSampledEdges()+int64(len(mb.InputNodes())))/eff) + 1
		b.m.Host.Sample(p, work, threads)
	case DGLUVA, Quiver:
		if b.Kind == Quiver {
			mallocs := quiverMallocsPerBatch + quiverMallocsPerLayer*len(mb.Blocks)
			for i := 0; i < mallocs; i++ {
				dev.Malloc(p)
			}
		}
		for _, blk := range mb.Blocks {
			// Index lookups: one indptr pair per destination node.
			dev.UVARead(p, b.m.Fabric, int64(len(blk.Dst)), 16, hw.TrafficSample)
			if b.Opts.Sample.Biased {
				// Biased UVA sampling must read whole adjacency + weight
				// lists from host memory.
				var adj int64
				for _, v := range blk.Dst {
					adj += int64(d.G.Degree(v))
				}
				dev.UVARead(p, b.m.Fabric, adj, 8, hw.TrafficSample)
			} else {
				// Unbiased: one 4-byte read per sampled edge.
				dev.UVARead(p, b.m.Fabric, int64(blk.NumEdges()), 4, hw.TrafficSample)
			}
			dev.RunKernel(p, hw.KernelSample, int64(blk.NumEdges()))
		}
		// Batch assembly (unique + local index building).
		dev.RunKernel(p, hw.KernelGather, int64(len(mb.InputNodes()))*16)
	case FastGCN:
		b.fastgcnSample(p, mb)
	}
	return mb
}

// fastgcnSample charges FastGCN's CPU layer-wise cost: a full scan of the
// proposal distribution per layer plus the draws.
func (b *Baseline) fastgcnSample(p *sim.Proc, mb *sample.MiniBatch) {
	d := b.Opts.Data
	scanItems := int64(len(mb.Blocks)) * int64(d.G.NumNodes())
	// Convert scan items into Host.Sample work units (which are costed at
	// SampleRate per core) so the scan runs at fastgcnScanRate per core.
	work := int64(float64(scanItems) * b.m.Host.Spec.SampleRate / fastgcnScanRate)
	b.m.Host.Sample(p, work+mb.NumSampledEdges(), b.m.Host.Spec.Cores)
}

// loadStage fetches batch features per the system's placement.
func (b *Baseline) loadStage(p *sim.Proc, rank int, mb *sample.MiniBatch) []float32 {
	d := b.Opts.Data
	dev := b.m.GPUs[rank]
	ids := mb.InputNodes()
	bytes := int64(len(ids)) * int64(d.RowBytes())
	switch b.Kind {
	case PyG, DGLCPU, FastGCN:
		// CPU gather, then staged DMA of features + batch structure.
		threads, _ := b.cpuWorkers()
		gatherBytes := bytes
		if b.Kind == PyG {
			gatherBytes = int64(float64(bytes) * pygGatherPenalty)
		}
		b.m.Host.Gather(p, gatherBytes, threads)
		structure := mb.NumSampledEdges()*4 + int64(len(ids))*4
		b.m.Fabric.HostDMA(p, rank, bytes+structure, hw.TrafficFeature)
	case DGLUVA:
		// One read per batch, an empty one included: from the GPU when the
		// cache holds every row, else from host memory.
		if b.cache.CachedRows[rank] > 0 {
			dev.RunKernel(p, hw.KernelGather, bytes)
		} else {
			dev.UVARead(p, b.m.Fabric, int64(len(ids)), d.RowBytes(), hw.TrafficFeature)
		}
	case Quiver:
		var hit, miss int64
		for _, v := range ids {
			if where, _ := b.cache.Locate(v, rank); where == featstore.LocalGPU {
				hit++
			} else {
				miss++
			}
		}
		if hit > 0 {
			dev.RunKernel(p, hw.KernelGather, hit*int64(d.RowBytes()))
		}
		if miss > 0 {
			dev.UVARead(p, b.m.Fabric, miss, d.RowBytes(), hw.TrafficFeature)
		}
	}
	if b.Opts.RealCompute {
		return train.GatherFeatures(d, mb)
	}
	return nil
}

// loadedBatch pairs a sample with its features.
type loadedBatch struct {
	mb    *sample.MiniBatch
	feats []float32
}

// RunEpoch implements train.System. Baseline systems execute stages
// sequentially (no producer-consumer pipeline — DSP's contribution).
func (b *Baseline) RunEpoch(epoch int) (train.EpochStats, error) {
	if b.Kind == FastGCN {
		return train.EpochStats{}, fmt.Errorf("baselines: FastGCN supports sampling epochs only (Table 7)")
	}
	return train.RunEpoch(train.Window{Machines: []*hw.Machine{b.m}}, epoch, 0, -1, false, 0, b.Opts.EffectiveStageOverhead(),
		func(_, rank int, st *train.EpochStats) pipeline.Stages {
			return pipeline.Stages{
				NumBatches: b.sched.Steps,
				Samplers: []pipeline.SampleFunc{func(p *sim.Proc, step int) interface{} {
					return b.sampleStage(p, rank, epoch, step)
				}},
				Loaders: []pipeline.LoadFunc{func(p *sim.Proc, step int, v interface{}) interface{} {
					mb := v.(*sample.MiniBatch)
					return loadedBatch{mb, b.loadStage(p, rank, mb)}
				}},
				Train: func(p *sim.Proc, step int, v interface{}) {
					l := v.(loadedBatch)
					b.trainer.Step(p, b.m.GPUs[rank], rank, l.mb, l.feats, st, b.Opts.GradOpts(), 0)
				},
			}
		})
}

// RunSampleEpoch implements train.System (Table 6 / Table 7 measurements).
func (b *Baseline) RunSampleEpoch(epoch int) (train.EpochStats, error) {
	return train.SampleEpoch([]*hw.Machine{b.m}, epoch, b.sched.Steps, b.Opts.EffectiveStageOverhead(),
		func(p *sim.Proc, _, rank, step int) { b.sampleStage(p, rank, epoch, step) })
}

var _ train.System = (*Baseline)(nil)

// SamplesMatchDSP verifies the BSP-equivalence premise: a baseline batch for
// (epoch, step, rank) is the exact sample DSP draws, because both use the
// shared schedule and seeding discipline on the same prepared data.
func (b *Baseline) SamplesMatchDSP(epoch, step, rank int, other *sample.MiniBatch) bool {
	seeds := b.sched.Batch(b.Opts.Data, b.Opts.Seed, epoch, step, rank)
	mine := sample.Reference(b.Opts.Data.G, seeds, b.Opts.Sample, train.BatchSeed(b.Opts.Seed, epoch, step, rank))
	if len(mine.Blocks) != len(other.Blocks) {
		return false
	}
	for l := range mine.Blocks {
		a, o := mine.Blocks[l], other.Blocks[l]
		if len(a.Src) != len(o.Src) {
			return false
		}
		for i := range a.Src {
			if a.Src[i] != o.Src[i] {
				return false
			}
		}
	}
	return true
}
