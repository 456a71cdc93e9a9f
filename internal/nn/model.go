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
// parameters), so the host does not compute it — but the modelled GPU runs
// that kernel, so its FLOPs are charged all the same (see inputGradFlops).
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
		block := c.block
		if l == 0 {
			// Charged, not computed: the input-gradient products and their
			// scatter.
			products := int64(1)
			if m.Cfg.Arch == SAGE {
				products = 2
			}
			flops += products*inputGradFlops(dh, in) + 2*int64(len(block.Src))*int64(in)
			return
		}
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

// inputGradFlops is what MatMulBT counts for the input gradient dh @ Wᵀ of a
// layer with `in` inputs — the charge of layer 0's product, which Backward
// skips on the host and still bills to the simulated GPU: Trainer.Step turns
// the FLOP count into virtual kernel time, and NominalFlops prices the same
// kernel sequence for cost-only runs.
func inputGradFlops(dh *Matrix, in int) int64 {
	return 2 * int64(dh.R) * int64(dh.C) * int64(in)
}

func addInto(dst, src *Matrix) {
	axpy(dst.Data, src.Data, 1)
	flops += int64(len(dst.Data))
}

// TrainStep runs forward, loss and backward for one batch, accumulating
// gradients (call ZeroGrads first). labels are the seed labels in order.
// It returns the mean loss, the number of correct predictions, and the
// FLOPs charged.
func (m *Model) TrainStep(mb *sample.MiniBatch, feats []float32, labels []int32) (loss float64, correct int, stepFlops int64) {
	start := flops
	logits, caches := m.Forward(mb, feats)
	dlogits := m.ws.matrix(logits.R, logits.C)
	loss, correct = SoftmaxCrossEntropy(logits, labels, dlogits)
	m.Backward(caches, dlogits)
	return loss, correct, flops - start
}

// Evaluate runs forward only and returns loss and accuracy.
func (m *Model) Evaluate(mb *sample.MiniBatch, feats []float32, labels []int32) (loss float64, correct int) {
	logits, _ := m.Forward(mb, feats)
	return SoftmaxCrossEntropy(logits, labels, m.ws.matrix(logits.R, logits.C))
}

// LayerFlops is the nominal forward cost of layer l over block b, split into
// its dense (projection matmul) and aggregation terms. Every nominal-cost
// estimate — training, inference, and the strategies' partial charges — is a
// weighted sum of these two numbers.
func LayerFlops(cfg Config, l int, b *sample.Block) (dense, agg int64) {
	in, out := cfg.dims(l)
	switch cfg.Arch {
	case GAT:
		// Projection over ALL input nodes plus per-edge attention.
		dense = 2 * int64(len(b.InputNodes)) * int64(in) * int64(out)
		agg = 12 * int64(len(b.Src)) * int64(out)
	case SAGE:
		dense = 4 * int64(len(b.Dst)) * int64(in) * int64(out) // self + neigh
		agg = 2 * int64(len(b.Src)) * int64(in)
	default:
		dense = 2 * int64(len(b.Dst)) * int64(in) * int64(out)
		agg = 2 * int64(len(b.Src)) * int64(in)
	}
	return dense, agg
}

// NominalFlops estimates the forward+backward FLOPs a batch would execute
// under cfg without running the math — used by the cost-only trainer mode
// in the large timing sweeps, where the paper-scale hidden size (256) would
// be too slow to execute for real on the host.
func NominalFlops(cfg Config, mb *sample.MiniBatch) int64 {
	var total int64
	for l, b := range mb.Blocks {
		dense, agg := LayerFlops(cfg, l, b)
		// Forward + two backward matmuls per forward matmul.
		total += 3*dense + 2*agg
	}
	return total
}

// NominalForwardFlops estimates the floating-point work of a forward-only
// (inference) pass: the same per-layer dense and aggregation terms as
// NominalFlops without the two backward matmuls per forward matmul.
func NominalForwardFlops(cfg Config, mb *sample.MiniBatch) int64 {
	var total int64
	for l, b := range mb.Blocks {
		dense, agg := LayerFlops(cfg, l, b)
		total += dense + agg
	}
	return total
}

// NominalAggBytes estimates the memory traffic of the aggregation kernels
// (edges × feature width), charged to the gather cost model.
func NominalAggBytes(cfg Config, mb *sample.MiniBatch) int64 {
	var total int64
	for l, b := range mb.Blocks {
		in, _ := cfg.dims(l)
		total += int64(len(b.Src)) * int64(in) * 4
	}
	return total
}
