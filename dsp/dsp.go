// Package dsp is the public API of the DSP reproduction: efficient
// sampling-based GNN training with multiple (simulated) GPUs, after
// "DSP: Efficient GNN Training with Multiple GPUs" (PPoPP 2023).
//
// A typical session:
//
//	ds := dsp.Standard("products", 4)         // scaled stand-in dataset
//	data := dsp.Prepare(ds.Dataset(), 4, 1)    // partition for 4 GPUs
//	sys, err := dsp.New(dsp.Options{
//	        Data:        data,
//	        RealCompute: true,
//	        Pipeline:    true,
//	        UseCCC:      true,
//	})
//	stats, err := sys.RunEpoch(0)
//	acc := dsp.Evaluate(data, sys.Model(), sys.Opts.Sample, 1000, 7)
//
// The package wraps the internal building blocks — the DES hardware model
// (internal/hw, internal/sim), the collective sampling primitive
// (internal/csp), the partitioned data layout (internal/partition,
// internal/featstore), the training pipeline (internal/pipeline) and the
// baseline systems (internal/baselines) — behind a small, stable surface.
package dsp

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/train"
)

// Core data types, re-exported from the internal packages.
type (
	// Graph is a CSR adjacency structure (in-neighbour lists).
	Graph = graph.CSR
	// NodeID is a graph node identifier.
	NodeID = graph.NodeID
	// Dataset is a generated graph with features, labels and splits.
	Dataset = gen.Dataset
	// DatasetConfig controls synthetic dataset generation.
	DatasetConfig = gen.Config
	// Data is a dataset prepared (partitioned + renumbered) for n GPUs.
	Data = train.Data
	// Options configures a training system.
	Options = train.Options
	// EpochStats reports one epoch's timing, accuracy and traffic.
	EpochStats = train.EpochStats
	// System is a runnable GNN training system (DSP or a baseline).
	System = train.System
	// SampleConfig selects the graph-sampling scheme (paper Table 2).
	SampleConfig = sample.Config
	// ModelConfig selects the GNN architecture and sizes.
	ModelConfig = nn.Config
	// MiniBatch is a multi-layer graph sample.
	MiniBatch = sample.MiniBatch
	// Model is a GNN with manual backpropagation.
	Model = nn.Model
	// Trainer is the DSP system type returned by New.
	Trainer = core.DSP
)

// Model architectures.
const (
	GraphSAGE = nn.SAGE
	GCN       = nn.GCN
	// GAT is a single-head graph attention network (extension beyond the
	// paper's evaluated models).
	GAT = nn.GAT
)

// Generate builds a synthetic power-law community dataset.
func Generate(cfg DatasetConfig) *Dataset { return gen.Generate(cfg) }

// StandardSpec describes one of the paper's evaluation datasets scaled for
// this repository.
type StandardSpec = gen.Standard

// Standard returns the scaled stand-in spec for "products", "papers" or
// "friendster"; shrink > 1 shrinks further for quick experiments.
func Standard(name string, shrink int) StandardSpec {
	return gen.StandardDataset(name, shrink)
}

// StandardData generates and prepares a standard dataset for nGPU simulated
// GPUs in one call, with the registry's memory scaling applied. An unknown
// name or a GPU count outside 1-8 is an error.
func StandardData(name string, nGPU, shrink int) (*Data, error) {
	return train.StandardData(name, nGPU, shrink, 13, true, nil)
}

// Prepare partitions a dataset into nGPU patches with METIS-style
// partitioning, renumbers it into layout order and co-partitions the seeds.
func Prepare(d *Dataset, nGPU int, seed uint64) *Data {
	return train.Prepare(d, nGPU, seed, true)
}

// PrepareHash is Prepare with locality-free hash partitioning (ablation).
func PrepareHash(d *Dataset, nGPU int, seed uint64) *Data {
	return train.Prepare(d, nGPU, seed, false)
}

// New builds a DSP system (the paper's full design: partitioned topology,
// partitioned feature cache, CSP sampling, pipelined workers under CCC).
func New(opts Options) (*Trainer, error) { return core.New(opts) }

// NetworkSpec describes the inter-machine interconnect.
type NetworkSpec = hw.NetworkSpec

// InfiniBandEDR returns the default 100 Gb/s cluster interconnect.
func InfiniBandEDR() NetworkSpec { return hw.InfiniBandEDR() }

// NewMulti builds DSP across machines identical simulated servers: topology
// and hot features replicate per machine, cold features partition across
// machines, gradients synchronise hierarchically.
func NewMulti(opts Options, machines int, net NetworkSpec) (*Trainer, error) {
	return core.NewMulti(opts, machines, net)
}

// NewBaseline builds one of the comparison systems by name: "pyg",
// "dgl-cpu", "dgl-uva", "quiver" or "fastgcn".
func NewBaseline(name string, opts Options) (System, error) {
	kind, err := baselines.Parse(name)
	if err != nil {
		return nil, fmt.Errorf("dsp: %w", err)
	}
	return baselines.New(kind, opts)
}

// Evaluate computes validation accuracy of a trained model (maxNodes <= 0
// evaluates the full validation split).
func Evaluate(d *Data, m *Model, cfg SampleConfig, maxNodes int, seed uint64) float64 {
	return train.Evaluate(d, m, cfg, maxNodes, seed)
}

// SampleReference draws a mini-batch on a single address space — the oracle
// the distributed CSP matches bit-for-bit (useful for testing custom
// sampling configurations).
func SampleReference(g *Graph, seeds []NodeID, cfg SampleConfig, batchSeed uint64) *MiniBatch {
	return sample.Reference(g, seeds, cfg, batchSeed)
}

// Online inference serving, re-exported from internal/serve.
type (
	// ServeConfig describes one online-inference serving run.
	ServeConfig = serve.Config
	// ServeReport summarises a serving run: latency percentiles,
	// throughput, shed rate and cache hit rate.
	ServeReport = serve.Report
	// ServeBatching selects the micro-batching policy.
	ServeBatching = serve.Batching
)

// Micro-batching policies for online serving.
const (
	// BatchDynamic flushes on a full batch or a max-wait timeout.
	BatchDynamic = serve.BatchDynamic
	// BatchSingle dispatches every request alone (ablation baseline).
	BatchSingle = serve.BatchSingle
	// BatchFixed flushes only on a full batch.
	BatchFixed = serve.BatchFixed
)

// Serve runs online GNN inference on the simulated fleet: a seeded Poisson
// request stream with power-law node popularity, micro-batched per the
// configured policy onto collective sample/gather/forward rounds.
func Serve(cfg ServeConfig) (*ServeReport, error) { return serve.Serve(cfg) }
