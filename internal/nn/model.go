package nn

import (
	"fmt"
	"strings"

	"repro/internal/arena"
	"repro/internal/rng"
	"repro/internal/sample"
)

// Arch selects the GNN architecture.
type Arch int

const (
	// SAGE is GraphSAGE with mean aggregation and a separate self weight.
	SAGE Arch = iota
	// GCN uses a single weight over the degree-normalised sum of self and
	// neighbours — computationally lighter than GraphSAGE, as the paper
	// notes when explaining Table 5.
	GCN
	// GAT is a single-head graph attention network — per-edge attention
	// makes it computationally heavier than GraphSAGE (see gat.go).
	GAT
)

func (a Arch) String() string {
	switch a {
	case GCN:
		return "GCN"
	case GAT:
		return "GAT"
	default:
		return "GraphSAGE"
	}
}

// ParseArch resolves an architecture name, case-insensitively: Arch.String's
// spelling or the short form sage, gcn or gat.
func ParseArch(s string) (Arch, error) {
	switch strings.ToLower(s) {
	case "sage", "graphsage":
		return SAGE, nil
	case "gcn":
		return GCN, nil
	case "gat":
		return GAT, nil
	}
	return SAGE, fmt.Errorf("nn: unknown architecture %q (want sage, gcn or gat)", s)
}

// Config describes a model: Layers hops with Hidden units and a final
// Classes-way output. The paper's default is a 3-layer GraphSAGE with
// hidden size 256.
type Config struct {
	Arch    Arch
	InDim   int
	Hidden  int
	Classes int
	Layers  int
}

func (c Config) dims(l int) (in, out int) {
	in = c.Hidden
	if l == 0 {
		in = c.InDim
	}
	out = c.Hidden
	if l == c.Layers-1 {
		out = c.Classes
	}
	return in, out
}

// Param is one weight matrix with its gradient accumulator.
type Param struct {
	Name string
	W    *Matrix
	G    *Matrix
}

// Model is a GNN with manual backpropagation.
type Model struct {
	Cfg    Config
	Params []*Param

	// Per-layer parameter handles.
	wSelf, wNeigh, bias []*Param // wSelf unused for GCN/GAT
	// attSrc/attDst are GAT's attention vectors (nil otherwise).
	attSrc, attDst []*Param

	ws workspace
}

// workspace is a Model's step-local storage: every activation, cache and
// gradient matrix of one Forward/Backward comes from a pool that the next
// Forward takes them back into, so a steady-state step allocates nothing.
// pool.Get returns zeroed memory exactly like make, so no value depends on
// the recycling.
type workspace struct {
	pool   arena.Pool
	mats   []*Matrix // reusable headers; mats[:used] hold this step's buffers
	used   int
	input  Matrix        // the caller's feature buffer as layer 0's input
	caches []*layerCache // one per block, reused step over step
}

// reset returns every matrix handed out since the last reset to the pool.
func (w *workspace) reset() {
	for _, m := range w.mats[:w.used] {
		w.pool.Put(m.Data)
		m.Data = nil
	}
	w.used = 0
}

// matrix returns a zeroed r×c matrix that is valid until the next reset.
func (w *workspace) matrix(r, c int) *Matrix {
	if w.used == len(w.mats) {
		w.mats = append(w.mats, new(Matrix))
	}
	m := w.mats[w.used]
	w.used++
	*m = Matrix{R: r, C: c, Data: w.pool.Get(r * c)}
	return m
}

// NewModel builds a model with Glorot-initialised weights, deterministically
// from seed.
func NewModel(cfg Config, seed uint64) *Model {
	if cfg.Layers < 1 {
		panic("nn: model needs at least one layer")
	}
	m := &Model{Cfg: cfg}
	r := rng.New(seed)
	addParam := func(name string, rows, cols int) *Param {
		p := &Param{Name: name, W: NewMatrix(rows, cols), G: NewMatrix(rows, cols)}
		p.W.GlorotInit(r)
		m.Params = append(m.Params, p)
		return p
	}
	for l := 0; l < cfg.Layers; l++ {
		in, out := cfg.dims(l)
		if cfg.Arch == SAGE {
			m.wSelf = append(m.wSelf, addParam(fmt.Sprintf("l%d.self", l), in, out))
		} else {
			m.wSelf = append(m.wSelf, nil)
		}
		m.wNeigh = append(m.wNeigh, addParam(fmt.Sprintf("l%d.neigh", l), in, out))
		if cfg.Arch == GAT {
			m.attSrc = append(m.attSrc, addParam(fmt.Sprintf("l%d.attsrc", l), 1, out))
			m.attDst = append(m.attDst, addParam(fmt.Sprintf("l%d.attdst", l), 1, out))
		} else {
			m.attSrc = append(m.attSrc, nil)
			m.attDst = append(m.attDst, nil)
		}
		m.bias = append(m.bias, addParam(fmt.Sprintf("l%d.bias", l), 1, out))
	}
	return m
}

// ParamCount returns the total number of scalar parameters.
func (m *Model) ParamCount() int {
	n := 0
	for _, p := range m.Params {
		n += len(p.W.Data)
	}
	return n
}

// GradVector copies all gradients into buf (len ParamCount) for allreduce.
func (m *Model) GradVector(buf []float32) {
	i := 0
	for _, p := range m.Params {
		copy(buf[i:], p.G.Data)
		i += len(p.G.Data)
	}
}

// SetGradVector writes buf back into the gradient matrices.
func (m *Model) SetGradVector(buf []float32) {
	i := 0
	for _, p := range m.Params {
		copy(p.G.Data, buf[i:i+len(p.G.Data)])
		i += len(p.G.Data)
	}
}

// ParamVector copies all weights into buf (for replica-equality checks).
func (m *Model) ParamVector(buf []float32) {
	i := 0
	for _, p := range m.Params {
		copy(buf[i:], p.W.Data)
		i += len(p.W.Data)
	}
}

// SetParamVector writes buf (len ParamCount, ParamVector layout) back into
// the weight matrices — checkpoint restore and replica broadcast.
func (m *Model) SetParamVector(buf []float32) {
	i := 0
	for _, p := range m.Params {
		copy(p.W.Data, buf[i:i+len(p.W.Data)])
		i += len(p.W.Data)
	}
}

// ZeroGrads clears all gradient accumulators.
func (m *Model) ZeroGrads() {
	for _, p := range m.Params {
		p.G.Zero()
	}
}

// layerCache holds forward intermediates needed by backward.
type layerCache struct {
	block *sample.Block
	x     *Matrix // layer input (inputNodes × in)
	self  *Matrix // the dst rows of x, its first len(Dst) (dst × in)
	agg   *Matrix // aggregated neighbours (dst × in)
	out   *Matrix // ReLU output, whose zeros are the mask (nil on the output layer)
	gat   *gatCache
}

// Forward computes logits for the batch seeds. feats holds the raw features
// of mb.InputNodes() in order, row-major with m.Cfg.InDim columns. The
// returned cache drives Backward.
//
// The logits and the caches live in the model's workspace: they are valid
// until the next Forward (or TrainStep or Evaluate) on the same Model, so
// consume them before that call.
func (m *Model) Forward(mb *sample.MiniBatch, feats []float32) (*Matrix, []*layerCache) {
	ws := &m.ws
	ws.reset()
	ws.input = Matrix{R: len(mb.InputNodes()), C: m.Cfg.InDim, Data: feats}
	x := &ws.input
	for len(ws.caches) < len(mb.Blocks) {
		ws.caches = append(ws.caches, new(layerCache))
	}
	caches := ws.caches[:len(mb.Blocks)]
	for l, block := range mb.Blocks {
		in, out := m.Cfg.dims(l)
		if x.C != in {
			panic(fmt.Sprintf("nn: layer %d input dim %d, want %d", l, x.C, in))
		}
		c := caches[l]
		if m.Cfg.Arch == GAT {
			if c.gat == nil {
				c.gat = new(gatCache)
			}
			x = m.forwardGAT(l, block, x, c.gat)
			continue
		}
		*c = layerCache{block: block, x: x}
		// Gather self rows and aggregate neighbour rows.
		c.self = ws.matrix(len(block.Dst), in)
		c.agg = ws.matrix(len(block.Dst), in)
		for i := range block.Dst {
			copy(c.self.Row(i), x.Row(i))
			ar := c.agg.Row(i)
			lo, hi := block.SrcPtr[i], block.SrcPtr[i+1]
			for _, s := range block.SrcLocal[lo:hi] {
				axpy(ar, x.Row(int(s)), 1)
			}
			switch m.Cfg.Arch {
			case SAGE:
				if hi > lo {
					inv := 1 / float32(hi-lo)
					for j := range ar {
						ar[j] *= inv
					}
				}
			case GCN:
				// Normalised sum including self.
				sr := c.self.Row(i)
				inv := 1 / float32(hi-lo+1)
				for j := range ar {
					ar[j] = (ar[j] + sr[j]) * inv
				}
			}
		}
		flops += 2 * int64(len(block.Src)) * int64(in)
		// Dense transform.
		h := ws.matrix(len(block.Dst), out)
		if m.Cfg.Arch == SAGE {
			MatMul(h, c.self, m.wSelf[l].W)
			tmp := ws.matrix(len(block.Dst), out)
			MatMul(tmp, c.agg, m.wNeigh[l].W)
			axpy(h.Data, tmp.Data, 1)
			flops += int64(len(h.Data))
		} else {
			MatMul(h, c.agg, m.wNeigh[l].W)
		}
		AddBiasInPlace(h, m.bias[l].W.Data)
		if l < m.Cfg.Layers-1 {
			ReLUInPlace(h)
			c.out = h
		}
		x = h
	}
	return x, caches
}

// Backward propagates dlogits through the cached layers, accumulating
// parameter gradients. It stops at layer 0's parameters: the gradient with
// respect to the input features is read by nothing (features are data, not
// parameters, and DGL's loader copies them without a gradient), so it is
// neither computed nor counted.
func (m *Model) Backward(caches []*layerCache, dlogits *Matrix) {
	ws := &m.ws
	dh := dlogits
	for l := len(caches) - 1; l >= 0; l-- {
		c := caches[l]
		if m.Cfg.Arch == GAT {
			dh = m.backwardGAT(l, c.gat, dh)
			continue
		}
		in, _ := m.Cfg.dims(l)
		if c.out != nil {
			ReLUBackwardInPlace(dh, c.out)
		}
		// Bias gradient: column sums.
		bg := m.bias[l].G.Data
		for i := 0; i < dh.R; i++ {
			axpy(bg, dh.Row(i), 1)
		}
		flops += int64(dh.R) * int64(dh.C)
		gw := ws.matrix(in, dh.C)
		if m.Cfg.Arch == SAGE {
			MatMulAT(gw, c.self, dh)
			addInto(m.wSelf[l].G, gw)
		}
		MatMulAT(gw, c.agg, dh)
		addInto(m.wNeigh[l].G, gw)
		if l == 0 {
			return
		}
		block := c.block
		var dSelf *Matrix
		dAgg := ws.matrix(dh.R, in)
		wt := ws.matrix(dh.C, in)
		if m.Cfg.Arch == SAGE {
			dSelf = ws.matrix(dh.R, in)
			matMulBT(dSelf, dh, m.wSelf[l].W, wt)
		}
		matMulBT(dAgg, dh, m.wNeigh[l].W, wt)
		// Scatter into dX.
		dx := ws.matrix(c.x.R, in)
		for i := range block.Dst {
			ar := dAgg.Row(i)
			lo, hi := block.SrcPtr[i], block.SrcPtr[i+1]
			switch m.Cfg.Arch {
			case SAGE:
				axpy(dx.Row(i), dSelf.Row(i), 1)
				if hi > lo {
					inv := 1 / float32(hi-lo)
					for _, s := range block.SrcLocal[lo:hi] {
						axpy(dx.Row(int(s)), ar, inv)
					}
				}
			case GCN:
				inv := 1 / float32(hi-lo+1)
				axpy(dx.Row(i), ar, inv)
				for _, s := range block.SrcLocal[lo:hi] {
					axpy(dx.Row(int(s)), ar, inv)
				}
			}
		}
		flops += 2 * int64(len(block.Src)) * int64(in)
		dh = dx
	}
}

func addInto(dst, src *Matrix) {
	axpy(dst.Data, src.Data, 1)
	flops += int64(len(dst.Data))
}

// TrainStep runs forward, loss and backward for one batch, accumulating
// gradients (call ZeroGrads first). labels are the seed labels in order.
// It returns the mean loss and the number of correct predictions; the FLOPs
// it executes are NominalFlops(m.Cfg, mb).
func (m *Model) TrainStep(mb *sample.MiniBatch, feats []float32, labels []int32) (loss float64, correct int) {
	logits, caches := m.Forward(mb, feats)
	dlogits := m.ws.matrix(logits.R, logits.C)
	loss, correct = SoftmaxCrossEntropy(logits, labels, dlogits)
	m.Backward(caches, dlogits)
	return loss, correct
}

// Evaluate runs forward only and returns loss and accuracy.
func (m *Model) Evaluate(mb *sample.MiniBatch, feats []float32, labels []int32) (loss float64, correct int) {
	logits, _ := m.Forward(mb, feats)
	return SoftmaxCrossEntropy(logits, labels, m.ws.matrix(logits.R, logits.C))
}

// LayerFlops is the work of layer l over block b exactly as the host kernels
// count it (FlopCount), from the shapes alone: forward is what Forward
// executes for the layer, backward what Backward executes (nothing below
// layer 0's parameters), and dense the projection's products — the forward
// pass runs them once and the weight gradient once more at the same size, so
// each of forward and backward holds dense once. Every compute charge, for
// training, inference and the strategies' netting, is a sum of these.
func LayerFlops(cfg Config, l int, b *sample.Block) (forward, backward, dense int64) {
	in, out := cfg.dims(l)
	dst, edges := int64(len(b.Dst)), int64(len(b.Src))
	io, rows := int64(in)*int64(out), dst*int64(out)
	agg := 2 * edges * int64(in) // the neighbour sum, and backward its scatter
	var inputGrad int64          // dh @ Wᵀ and its scatter: above layer 0 only
	switch cfg.Arch {
	case GAT:
		// z = x @ W over every input row; per attention slot (each edge and
		// one self slot per destination) the score dot product and the
		// weighted sum, 6 flops a unit forward and 8 backward, plus each
		// destination's own score dot product.
		dense = 2 * int64(len(b.InputNodes)) * io
		slots := (edges + dst) * int64(out)
		forward = dense + 6*slots + 2*rows
		backward = rows + 8*slots + dense + io // bias, attention, weight gradient, accumulate
		inputGrad = dense
	case SAGE:
		dense = 4 * dst * io           // self and neighbour projections
		forward = agg + dense + rows   // and their sum
		backward = rows + dense + 2*io // bias, weight gradients, accumulate
		inputGrad = dense + agg
	default:
		dense = 2 * dst * io
		forward = agg + dense
		backward = rows + dense + io
		inputGrad = dense + agg
	}
	forward += rows // bias
	if l < cfg.Layers-1 {
		forward += rows // ReLU
	}
	if l > 0 {
		backward += inputGrad
	}
	return forward, backward, dense
}

// NominalFlops is the FLOPs TrainStep executes on mb under cfg — every
// layer's forward and backward plus the loss — priced from the shapes
// without running the math. Every training step charges it as one compute
// kernel, whether or not the math runs.
func NominalFlops(cfg Config, mb *sample.MiniBatch) int64 {
	var total int64
	for l, b := range mb.Blocks {
		fwd, bwd, _ := LayerFlops(cfg, l, b)
		total += fwd + bwd
	}
	seeds := int64(len(mb.Blocks[len(mb.Blocks)-1].Dst))
	return total + 5*seeds*int64(cfg.Classes) // SoftmaxCrossEntropy
}

// NominalForwardFlops is the FLOPs Forward executes on mb under cfg: the
// charge of an inference pass.
func NominalForwardFlops(cfg Config, mb *sample.MiniBatch) int64 {
	var total int64
	for l, b := range mb.Blocks {
		fwd, _, _ := LayerFlops(cfg, l, b)
		total += fwd
	}
	return total
}

// NominalAggBytes is the row traffic of the aggregation (edges × input width
// × 4 B per layer): every step and inference charges it to the gather model
// beside its FLOPs, because gathering neighbour rows is bandwidth-bound.
func NominalAggBytes(cfg Config, mb *sample.MiniBatch) int64 {
	var total int64
	for l, b := range mb.Blocks {
		in, _ := cfg.dims(l)
		total += int64(len(b.Src)) * int64(in) * 4
	}
	return total
}
