package nn

import (
	"fmt"

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
	block  *sample.Block
	x      *Matrix // layer input (inputNodes × in)
	self   *Matrix // rows of x at DstLocal (dst × in)
	agg    *Matrix // aggregated neighbours (dst × in)
	mask   []bool  // ReLU mask (nil on the output layer)
	counts []int32 // per-dst sample counts
	gat    *gatCache
}

// Forward computes logits for the batch seeds. feats holds the raw features
// of mb.InputNodes() in order, row-major with m.Cfg.InDim columns. The
// returned cache drives Backward.
func (m *Model) Forward(mb *sample.MiniBatch, feats []float32) (*Matrix, []*layerCache) {
	inputs := mb.InputNodes()
	x := &Matrix{R: len(inputs), C: m.Cfg.InDim, Data: feats}
	caches := make([]*layerCache, 0, m.Cfg.Layers)
	for l, block := range mb.Blocks {
		in, out := m.Cfg.dims(l)
		if x.C != in {
			panic(fmt.Sprintf("nn: layer %d input dim %d, want %d", l, x.C, in))
		}
		if m.Cfg.Arch == GAT {
			h, gc := m.forwardGAT(l, block, x)
			caches = append(caches, &layerCache{gat: gc})
			x = h
			continue
		}
		c := &layerCache{block: block, x: x}
		c.counts = make([]int32, len(block.Dst))
		for i := range block.Dst {
			c.counts[i] = block.SrcPtr[i+1] - block.SrcPtr[i]
		}
		// Gather self rows and aggregate neighbour rows.
		c.self = NewMatrix(len(block.Dst), in)
		c.agg = NewMatrix(len(block.Dst), in)
		for i := range block.Dst {
			copy(c.self.Row(i), x.Row(int(block.DstLocal[i])))
			ar := c.agg.Row(i)
			for e := block.SrcPtr[i]; e < block.SrcPtr[i+1]; e++ {
				xr := x.Row(int(block.SrcLocal[e]))
				for j := range ar {
					ar[j] += xr[j]
				}
			}
			switch m.Cfg.Arch {
			case SAGE:
				if c.counts[i] > 0 {
					inv := 1 / float32(c.counts[i])
					for j := range ar {
						ar[j] *= inv
					}
				}
			case GCN:
				// Normalised sum including self.
				sr := c.self.Row(i)
				inv := 1 / float32(c.counts[i]+1)
				for j := range ar {
					ar[j] = (ar[j] + sr[j]) * inv
				}
			}
		}
		flops += 2 * int64(len(block.Src)) * int64(in)
		// Dense transform.
		h := NewMatrix(len(block.Dst), out)
		if m.Cfg.Arch == SAGE {
			MatMul(h, c.self, m.wSelf[l].W)
			tmp := NewMatrix(len(block.Dst), out)
			MatMul(tmp, c.agg, m.wNeigh[l].W)
			for i := range h.Data {
				h.Data[i] += tmp.Data[i]
			}
			flops += int64(len(h.Data))
		} else {
			MatMul(h, c.agg, m.wNeigh[l].W)
		}
		AddBiasInPlace(h, m.bias[l].W.Data)
		if l < m.Cfg.Layers-1 {
			c.mask = make([]bool, len(h.Data))
			ReLUInPlace(h, c.mask)
		}
		caches = append(caches, c)
		x = h
	}
	return x, caches
}

// Backward propagates dlogits through the cached layers, accumulating
// parameter gradients.
func (m *Model) Backward(caches []*layerCache, dlogits *Matrix) {
	dh := dlogits
	for l := len(caches) - 1; l >= 0; l-- {
		c := caches[l]
		if c.gat != nil {
			dh = m.backwardGAT(l, c.gat, dh)
			continue
		}
		in, _ := m.Cfg.dims(l)
		if c.mask != nil {
			ReLUBackwardInPlace(dh, c.mask)
		}
		// Bias gradient: column sums.
		bg := m.bias[l].G
		for i := 0; i < dh.R; i++ {
			r := dh.Row(i)
			for j := range r {
				bg.Data[j] += r[j]
			}
		}
		flops += int64(dh.R) * int64(dh.C)
		dSelf := NewMatrix(dh.R, in)
		dAgg := NewMatrix(dh.R, in)
		if m.Cfg.Arch == SAGE {
			gw := NewMatrix(in, dh.C)
			MatMulAT(gw, c.self, dh)
			addInto(m.wSelf[l].G, gw)
			MatMulAT(gw, c.agg, dh)
			addInto(m.wNeigh[l].G, gw)
			MatMulBT(dSelf, dh, m.wSelf[l].W)
			MatMulBT(dAgg, dh, m.wNeigh[l].W)
		} else {
			gw := NewMatrix(in, dh.C)
			MatMulAT(gw, c.agg, dh)
			addInto(m.wNeigh[l].G, gw)
			MatMulBT(dAgg, dh, m.wNeigh[l].W)
		}
		// Scatter into dX.
		dx := NewMatrix(c.x.R, in)
		block := c.block
		for i := range block.Dst {
			ar := dAgg.Row(i)
			switch m.Cfg.Arch {
			case SAGE:
				dr := dx.Row(int(block.DstLocal[i]))
				sr := dSelf.Row(i)
				for j := range dr {
					dr[j] += sr[j]
				}
				if c.counts[i] > 0 {
					inv := 1 / float32(c.counts[i])
					for e := block.SrcPtr[i]; e < block.SrcPtr[i+1]; e++ {
						xr := dx.Row(int(block.SrcLocal[e]))
						for j := range xr {
							xr[j] += ar[j] * inv
						}
					}
				}
			case GCN:
				inv := 1 / float32(c.counts[i]+1)
				dr := dx.Row(int(block.DstLocal[i]))
				for j := range dr {
					dr[j] += ar[j] * inv
				}
				for e := block.SrcPtr[i]; e < block.SrcPtr[i+1]; e++ {
					xr := dx.Row(int(block.SrcLocal[e]))
					for j := range xr {
						xr[j] += ar[j] * inv
					}
				}
			}
		}
		flops += 2 * int64(len(block.Src)) * int64(in)
		dh = dx
	}
}

func addInto(dst, src *Matrix) {
	for i := range dst.Data {
		dst.Data[i] += src.Data[i]
	}
	flops += int64(len(dst.Data))
}

// TrainStep runs forward, loss and backward for one batch, accumulating
// gradients (call ZeroGrads first). labels are the seed labels in order.
// It returns the mean loss, the number of correct predictions, and the
// FLOPs executed.
func (m *Model) TrainStep(mb *sample.MiniBatch, feats []float32, labels []int32) (loss float64, correct int, stepFlops int64) {
	start := flops
	logits, caches := m.Forward(mb, feats)
	dlogits := NewMatrix(logits.R, logits.C)
	loss, correct = SoftmaxCrossEntropy(logits, labels, dlogits)
	m.Backward(caches, dlogits)
	return loss, correct, flops - start
}

// Evaluate runs forward only and returns loss and accuracy.
func (m *Model) Evaluate(mb *sample.MiniBatch, feats []float32, labels []int32) (loss float64, correct int) {
	logits, _ := m.Forward(mb, feats)
	dl := NewMatrix(logits.R, logits.C)
	return SoftmaxCrossEntropy(logits, labels, dl)
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
