// Package train holds the infrastructure shared by the DSP system
// (internal/core) and the baseline systems (internal/baselines): prepared
// datasets in layout order, the System interface, per-epoch statistics, the
// batch schedule, and the evaluation helper.
package train

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/featstore"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/sim"
)

// Data is a dataset prepared for an n-GPU run: renumbered into layout order
// with per-GPU ownership ranges and co-partitioned seed shards. Every system
// consumes the same Data so graph samples — and therefore learning curves —
// are bitwise identical across systems (the paper's Figure 9a). Its feature
// values are read through Features, which draws them on the first call; a
// Data is shared by pointer, never copied.
type Data struct {
	Name       string
	G          *graph.CSR
	FeatDim    int
	Labels     []int32
	NumClasses int
	Offsets    []int64
	Shards     [][]graph.NodeID // per-GPU training seeds
	Val        []graph.NodeID
	// ScaleFactor and GPUMemBytes carry the dataset-registry scaling (see
	// gen.Standard); zero GPUMemBytes means "use the spec default".
	ScaleFactor float64
	GPUMemBytes int64
	// BenchBatch is the registry-recommended mini-batch size (0 = none).
	BenchBatch int

	feats     []float32       // node-major, layout order; nil until Features
	drawFeats func([]float32) // fills feats; nil when they were given
	featsOnce sync.Once
}

// Features returns the feature values, node-major in layout order: node v's
// row is the FeatDim values from v*FeatDim. The first call draws them (once,
// however many goroutines make it at the same time); a run that never calls
// it never pays for them.
func (d *Data) Features() []float32 {
	d.featsOnce.Do(func() {
		if d.drawFeats != nil {
			d.feats = make([]float32, d.G.NumNodes()*d.FeatDim)
			d.drawFeats(d.feats)
			d.drawFeats = nil
		}
	})
	return d.feats
}

// SetFeatures gives d its feature values, node-major in layout order, in
// place of drawing them (a Data read from a file). Call it before Features.
func (d *Data) SetFeatures(vals []float32) {
	d.feats, d.drawFeats = vals, nil
}

// Prepare partitions, renumbers and shards a generated dataset for nGPU
// GPUs. useMetis selects METIS-style partitioning (DSP's layout); false uses
// hash partitioning (the locality ablation).
func Prepare(d *gen.Dataset, nGPU int, seed uint64, useMetis bool) *Data {
	var res *partition.Result
	if useMetis {
		res = partition.Metis(d.G, nGPU, seed)
	} else {
		res = partition.Hash(d.G, nGPU)
	}
	ren := partition.BuildRenumbering(res)
	rows, newID := d.Rows, ren.NewID
	td := &Data{
		Name:       d.Name,
		G:          ren.ApplyToGraph(d.G),
		FeatDim:    d.FeatDim,
		Labels:     ren.ApplyToLabels(d.Labels),
		NumClasses: d.NumClasses,
		Offsets:    ren.Offsets,
		Val:        ren.ApplyToIDs(d.ValIdx),
		drawFeats:  func(dst []float32) { rows.Draw(dst, newID) },
	}
	trainIDs := ren.ApplyToIDs(d.TrainIdx)
	for g := 0; g < nGPU; g++ {
		td.Shards = append(td.Shards, ren.SortOwned(trainIDs, g))
	}
	return td
}

// StandardData is the one recipe for a paper stand-in ready to run: generate
// gen.StandardDataset(name, shrink), Prepare it for gpus GPUs with the
// partitioner seed (METIS, or hash partitioning when metis is false) and
// stamp the stand-in's ScaleFactor, GPUMemBytes and BenchBatch. generate
// turns the resolved spec into the dataset (nil: gen.Generate of its
// Config), so a caller can cache it, attach edge weights or print progress.
// An unknown name or a GPU count outside 1-8 (one DGX-1) is an error naming
// the value.
func StandardData(name string, gpus, shrink int, seed uint64, metis bool, generate func(gen.Standard) *gen.Dataset) (*Data, error) {
	if !slices.Contains(gen.StandardNames, name) {
		return nil, fmt.Errorf("train: unknown dataset %q (want %s)", name, strings.Join(gen.StandardNames, ", "))
	}
	if gpus < 1 || gpus > 8 {
		return nil, fmt.Errorf("train: %d GPUs, want 1-8 (one DGX-1)", gpus)
	}
	std := gen.StandardDataset(name, shrink)
	var d *gen.Dataset
	if generate != nil {
		d = generate(std)
	} else {
		d = gen.Generate(std.Config)
	}
	td := Prepare(d, gpus, seed, metis)
	td.ScaleFactor = std.ScaleFactor
	td.GPUMemBytes = std.GPUMemBytes()
	td.BenchBatch = std.BenchBatch
	return td, nil
}

// NumGPUs returns the shard count.
func (d *Data) NumGPUs() int { return len(d.Shards) }

// FeatureBytes returns the total feature footprint.
func (d *Data) FeatureBytes() int64 { return int64(d.G.NumNodes()) * int64(d.FeatDim) * 4 }

// RowBytes returns one feature row's size.
func (d *Data) RowBytes() int { return d.FeatDim * 4 }

// Schedule is the per-epoch batch plan: all ranks execute the same number of
// steps so collectives stay aligned; ranks whose shard is exhausted
// participate with empty seed sets. Machines interleave batch-sized slices of
// every shard (one machine takes them all).
type Schedule struct {
	BatchSize int
	Steps     int
	Machines  int
	// perms[rank] is rank's shard permutation for one epoch, drawn into the
	// last epoch's array at the epoch's first batch and shared by every
	// machine.
	perms []epochPerm
}

// epochPerm is a shard permutation and the epoch it was drawn for.
type epochPerm struct {
	epoch int
	perm  []int
}

// NewSchedule plans one machine's epoch over d's shards.
func NewSchedule(d *Data, batchSize int) Schedule { return NewClusterSchedule(d, batchSize, 1) }

// NewClusterSchedule plans an epoch whose every shard machines consume in
// turn: the step count is the most batches one machine's stride of a shard
// holds.
func NewClusterSchedule(d *Data, batchSize, machines int) Schedule {
	s := Schedule{BatchSize: batchSize, Machines: machines, perms: make([]epochPerm, d.NumGPUs())}
	for _, shard := range d.Shards {
		per := (len(shard) + machines - 1) / machines
		s.Steps = max(s.Steps, (per+batchSize-1)/batchSize)
	}
	return s
}

// Step returns rank's seeds and sampling seed for (epoch, step) on machine:
// rank's shard, shuffled per epoch with a deterministic permutation shared by
// every system and machine (drawn once per epoch and rank), is cut into
// batches the machines take in turn. The seeds are a new array, nil once the
// shard is exhausted.
func (s *Schedule) Step(d *Data, runSeed uint64, epoch, step, machine, rank int) ([]graph.NodeID, uint64) {
	shard := d.Shards[rank]
	ep := &s.perms[rank]
	if ep.perm == nil || ep.epoch != epoch {
		ep.epoch, ep.perm = epoch, slices.Grow(ep.perm[:0], len(shard))[:len(shard)]
		for i := range ep.perm {
			ep.perm[i] = i
		}
		rng.New(rng.Mix(runSeed, 0xE0C, uint64(epoch), uint64(rank))).ShuffleInts(ep.perm)
	}
	stride := step*s.Machines + machine
	seed := BatchSeed(runSeed, epoch, stride, rank)
	lo := stride * s.BatchSize
	if lo >= len(shard) {
		return nil, seed
	}
	hi := min(lo+s.BatchSize, len(shard))
	out := make([]graph.NodeID, 0, hi-lo)
	for _, idx := range ep.perm[lo:hi] {
		out = append(out, shard[idx])
	}
	return out, seed
}

// Batch is one machine's Step without the sampling seed.
func (s *Schedule) Batch(d *Data, runSeed uint64, epoch, step, rank int) []graph.NodeID {
	seeds, _ := s.Step(d, runSeed, epoch, step, 0, rank)
	return seeds
}

// BatchSeed derives the sampling seed for (epoch, step, rank).
func BatchSeed(runSeed uint64, epoch, step, rank int) uint64 {
	return rng.Mix(runSeed, 0x5EED, uint64(epoch), uint64(step), uint64(rank))
}

// EpochStats reports one measured epoch.
type EpochStats struct {
	Epoch int
	// EpochTime is the virtual wall time of the epoch (for a sampler-only
	// epoch, Table 6's sampling time).
	EpochTime sim.Time
	// Loss/Correct/Seen aggregate training progress (real-compute runs).
	Loss    float64
	Correct int
	Seen    int
	// Utilization is each GPU's busy fraction during the epoch.
	Utilization []float64
	// Counters is the epoch's delta of the substrate's counter set (wire
	// per class, cache tiers and adaptation, store, codecs, strategy),
	// taken by the one bracket in RunEpoch. Baselines count wire only.
	Counters
	// Per-step stage duration distributions (virtual seconds, including the
	// host-side stage overhead; one observation per rank per step), merged
	// across ranks by RunEpoch. Their Sum() is how long the epoch spent in
	// each worker; under the pipeline the stages overlap, so the sums add up
	// to more than EpochTime. All three are nil for a sampler-only epoch.
	SampleDist, LoadDist, TrainDist *metrics.Histogram
}

// Add folds o into e: another rank's share of the same epoch, the next
// committed segment of it, or the next epoch of a run. Sums are taken in call
// order, so equal call sequences give bit-identical totals; the utilization
// of the last operand stands for the whole (busy windows do not merge).
func (e *EpochStats) Add(o EpochStats) {
	e.EpochTime += o.EpochTime
	e.Loss += o.Loss
	e.Correct += o.Correct
	e.Seen += o.Seen
	e.Utilization = o.Utilization
	e.Counters.Add(o.Counters)
	if e.SampleDist == nil {
		e.SampleDist, e.LoadDist, e.TrainDist = metrics.New(), metrics.New(), metrics.New()
	}
	e.SampleDist.Merge(o.SampleDist)
	e.LoadDist.Merge(o.LoadDist)
	e.TrainDist.Merge(o.TrainDist)
}

// Acc returns training accuracy for the epoch.
func (e EpochStats) Acc() float64 {
	if e.Seen == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.Seen)
}

// System is a GNN training system under evaluation.
type System interface {
	Name() string
	// RunEpoch executes one full training epoch and reports stats.
	RunEpoch(epoch int) (EpochStats, error)
	// RunSampleEpoch executes only the sampler workload of one epoch
	// (the Table 6 measurement).
	RunSampleEpoch(epoch int) (EpochStats, error)
	// Machine exposes the simulated server for inspection.
	Machine() *hw.Machine
	// Model returns rank 0's model replica (nil in cost-only mode).
	Model() *nn.Model
}

// SampleEpoch is the sampler-only epoch behind every System.RunSampleEpoch:
// one worker per GPU of machines (one machine, or a cluster's on one engine)
// pays overhead and calls sample for each step, with nothing else running (the
// paper's Table 6 methodology — "running the sampler individually without
// interference from other workers").
func SampleEpoch(machines []*hw.Machine, epoch, steps int, overhead sim.Time,
	sample func(p *sim.Proc, machine, rank, step int)) (EpochStats, error) {
	eng := machines[0].Eng
	start := eng.Now()
	for mi, m := range machines {
		for rank := range m.GPUs {
			eng.Go(workerName(m, rank)+"/sampler", func(p *sim.Proc) {
				for step := 0; step < steps; step++ {
					p.Sleep(overhead)
					sample(p, mi, rank, step)
				}
			})
		}
	}
	end, err := eng.Run()
	if err != nil {
		return EpochStats{}, err
	}
	return EpochStats{Epoch: epoch, EpochTime: end - start}, nil
}

// Options configures a system build. Zero values get defaults from Default.
type Options struct {
	Data      *Data
	GPU       hw.GPUSpec
	Model     nn.Config
	Sample    sample.Config
	BatchSize int
	// RealCompute runs the actual forward/backward math (Figure 9 and the
	// examples); false charges nominal kernel costs only, which is how the
	// large timing sweeps run paper-scale hidden sizes on a laptop host.
	RealCompute bool
	LR          float64
	Seed        uint64

	// DSP-specific knobs. Baselines ignore them, except that baselines.New
	// refuses those a CLI flag sets, GradCodec and Parallel aside.
	Pipeline bool // producer-consumer pipeline vs DSP-Seq
	QueueCap int
	UseCCC   bool
	// FeatureCacheBudget is the per-GPU byte budget for cached features
	// (<=0: use all memory left after the topology patch).
	FeatureCacheBudget int64
	// ReplicatedCache switches DSP to a Quiver-style replicated cache (the
	// caching ablation).
	ReplicatedCache bool
	// TopoCacheBudget is the per-GPU byte budget for the topology patch
	// (<=0: cache the whole patch). Smaller budgets spill low-degree
	// adjacency lists to CPU memory (Figure 10).
	TopoCacheBudget int64
	// CachePolicy selects the hot-node criterion (zero value: by degree).
	CachePolicy featstore.Policy
	// DynamicCache selects the adaptive feature-cache policy
	// (internal/cache): non-static policies rebalance each GPU's shard at
	// epoch boundaries, promoting rows the tracker observed as hot. The
	// replicated layout has no shard to rebalance and refuses them.
	DynamicCache cache.Policy
	// CacheDecay is the adaptive manager's per-rebalance hotness decay
	// (cache.Config.Decay; outside (0, 1] the cache package default).
	CacheDecay float64
	// CompressTopology stores the partitioned topology varint-compressed
	// (delta-sorted gap encoding, internal/graph.CompressedCSR): resident
	// topology bytes shrink ~4x and sampling pays a decode kernel per
	// accessed adjacency row.
	CompressTopology bool
	// OOC enables the out-of-core tier (internal/store): topology and
	// feature blocks live on a simulated NVMe spill device below host
	// memory, with an LRU block cache and a proximity-aware prefetcher that
	// walks the sampling frontier.
	OOC bool
	// OOCBudget is the host block-cache byte budget (<=0: half the block
	// bytes, forcing real spill traffic).
	OOCBudget int64
	// OOCNoPrefetch disables the prefetcher (the ooc-sweep ablation arm).
	OOCNoPrefetch bool
	// OOCBlockNodes overrides the store's block width in nodes (0 = the
	// store's default). Experiments on shrunken stand-ins lower it so the
	// block count stays in the regime a full-scale graph would see.
	OOCBlockNodes int
	// PullData switches CSP to the data-pull paradigm (Figure 11 ablation).
	PullData bool
	// UnfusedSampling switches CSP's sample stage to one kernel per task —
	// the rejected asynchronous design of §4.1 (ablation).
	UnfusedSampling bool
	// NumSamplers/NumLoaders run multiple worker instances per stage — the
	// rejected multi-instance pipeline of §5 (ablation). 0 or 1 = single.
	NumSamplers, NumLoaders int
	// LatencyScale divides per-message link latencies (the benchmark
	// harness matches it to the batch-count scaling; 0 = 1).
	LatencyScale float64
	// GradCodec compresses the gradient allreduce (nil = raw fp32). The
	// codec shapes both wire bytes and the reduced values — quantisation
	// error flows into the model — while replicas stay bitwise identical.
	GradCodec compress.Codec
	// FeatCodec compresses peer-to-peer feature transfers: the NVLink
	// all-to-all replies of the load stage and the inter-machine NIC sends
	// (nil = raw fp32). UVA host reads are zero-copy and never compressed.
	FeatCodec compress.Codec
	// Faults is the injected fault schedule (fault-tolerance runs). The
	// system builds the injector; the FT driver arms it. Fault times are
	// GLOBAL virtual time — a rebuilt fleet skips faults already delivered —
	// and GPU ids are cluster-wide on a cluster (machine*GPUs + GPU).
	Faults []fault.Fault
	// Strategy selects the execution strategy: "" or "dsp" is the paper's
	// row-partitioned hot/cold layout, "p3" the dimension-partitioned
	// push-pull layout (internal/strategy). A plain string so this package
	// stays below internal/strategy in the import graph; strategy.Build
	// parses and checks it.
	Strategy string
	// Parallel is the OS-thread budget for offloaded data work (sampling
	// draws, codec encodes, reductions) between DES commit points
	// (sim.SetParallelism). Results are bitwise identical at any value;
	// <=1 runs everything inline on the engine thread.
	Parallel int
}

// stageOverhead is the host-side framework cost per worker stage per batch
// (Python and CUDA-runtime bookkeeping; the GPU is idle during it).
const stageOverhead sim.Time = 2e-3

// EffectiveStageOverhead is the per-stage host cost, divided by LatencyScale
// like the other per-batch fixed costs.
func (o Options) EffectiveStageOverhead() sim.Time {
	if o.LatencyScale > 1 {
		return stageOverhead / sim.Time(o.LatencyScale)
	}
	return stageOverhead
}

// Defaults fills unset fields: V100 GPUs (memory possibly scaled by the
// dataset), paper model (3-layer, hidden 256), fan-out [15,10,5], batch 1024.
func (o Options) Defaults() Options {
	if o.GPU.Threads == 0 {
		o.GPU = hw.V100()
	}
	if o.Data != nil && o.Data.GPUMemBytes > 0 {
		o.GPU.MemBytes = o.Data.GPUMemBytes
	}
	if o.Model.Layers == 0 {
		o.Model = nn.Config{Arch: nn.SAGE, InDim: o.Data.FeatDim, Hidden: 256, Classes: o.Data.NumClasses, Layers: 3}
	}
	if o.Model.InDim == 0 {
		o.Model.InDim = o.Data.FeatDim
	}
	if o.Model.Classes == 0 {
		o.Model.Classes = o.Data.NumClasses
	}
	if len(o.Sample.Fanout) == 0 {
		o.Sample.Fanout = []int{15, 10, 5}
	}
	if o.BatchSize == 0 {
		o.BatchSize = 1024
	}
	if o.LR == 0 {
		o.LR = 0.003
	}
	if o.QueueCap == 0 {
		o.QueueCap = 2
	}
	return o
}

// Validate rejects inconsistent options, naming the field at fault. It is
// the one check of a resolved substrate configuration: training, the
// baselines and serving all run their Defaults through it.
func (o Options) Validate() error {
	if o.Data == nil {
		return fmt.Errorf("train: options missing Data")
	}
	if o.Model.Layers < 1 {
		return fmt.Errorf("train: Model.Layers = %d, want >= 1", o.Model.Layers)
	}
	if o.Model.Layers > 1 && o.Model.Hidden < 1 {
		return fmt.Errorf("train: Model.Hidden = %d, want >= 1 for a %d-layer model", o.Model.Hidden, o.Model.Layers)
	}
	if o.BatchSize < 0 {
		return fmt.Errorf("train: negative BatchSize %d (0 selects the default of 1024)", o.BatchSize)
	}
	if len(o.Sample.Fanout) != o.Model.Layers {
		return fmt.Errorf("train: %d fan-outs for %d model layers", len(o.Sample.Fanout), o.Model.Layers)
	}
	if err := o.Sample.Validate(); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if o.QueueCap < 0 {
		return fmt.Errorf("train: negative QueueCap %d (0 selects the default of 2)", o.QueueCap)
	}
	// The out-of-core knobs tune a tier that only OOC builds.
	switch {
	case o.OOC:
	case o.OOCBudget != 0:
		return fmt.Errorf("train: OOCBudget (-ooc-budget) requires OOC (-ooc)")
	case o.OOCNoPrefetch:
		return fmt.Errorf("train: OOCNoPrefetch (-ooc-no-prefetch) requires OOC (-ooc)")
	case o.OOCBlockNodes != 0:
		return fmt.Errorf("train: OOCBlockNodes requires OOC")
	}
	return nil
}

// GatherFeatures copies the raw features of a batch's input nodes in order
// (the real data work behind the loader).
func GatherFeatures(d *Data, mb *sample.MiniBatch) []float32 {
	inputs := mb.InputNodes()
	return GatherFeaturesInto(make([]float32, len(inputs)*d.FeatDim), d, mb)
}

// GatherFeaturesInto is GatherFeatures into a caller-owned buffer of exactly
// len(mb.InputNodes())*FeatDim elements (e.g. an arena-pooled one); every
// element is overwritten. It is pure data work, safe to offload on a
// sim.Ticket.
func GatherFeaturesInto(out []float32, d *Data, mb *sample.MiniBatch) []float32 {
	inputs := mb.InputNodes()
	if len(out) != len(inputs)*d.FeatDim {
		panic(fmt.Sprintf("train: gather buffer %d for %d rows x %d dims", len(out), len(inputs), d.FeatDim))
	}
	feats := d.Features()
	for i, v := range inputs {
		copy(out[i*d.FeatDim:(i+1)*d.FeatDim], feats[int(v)*d.FeatDim:(int(v)+1)*d.FeatDim])
	}
	return out
}

// SeedLabels returns the labels of a batch's seeds in order.
func SeedLabels(d *Data, mb *sample.MiniBatch) []int32 {
	out := make([]int32, len(mb.Seeds))
	for i, s := range mb.Seeds {
		out[i] = d.Labels[s]
	}
	return out
}

// Evaluate computes validation accuracy of a model with the reference
// sampler (host-side, untimed).
func Evaluate(d *Data, m *nn.Model, cfg sample.Config, maxNodes int, seed uint64) float64 {
	val := d.Val
	if maxNodes > 0 && len(val) > maxNodes {
		val = val[:maxNodes]
	}
	if len(val) == 0 {
		return 0
	}
	correct := 0
	const chunk = 512
	dedup := sample.NewDeduper(d.G.NumNodes())
	for lo := 0; lo < len(val); lo += chunk {
		hi := lo + chunk
		if hi > len(val) {
			hi = len(val)
		}
		mb := sample.ReferenceInto(dedup, d.G, val[lo:hi], cfg, rng.Mix(seed, 0xE7A1, uint64(lo)))
		feats := GatherFeatures(d, mb)
		labels := SeedLabels(d, mb)
		_, c := m.Evaluate(mb, feats, labels)
		correct += c
	}
	return float64(correct) / float64(len(val))
}
