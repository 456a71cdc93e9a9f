package nn

import (
	"math"

	"repro/internal/sample"
)

// GAT support: a single-head graph attention layer (Velickovic et al.,
// ICLR 2018), the third GNN variant the paper's introduction names. The
// layer computes, for destination i with sampled neighbours j (self
// included):
//
//	z_v     = x_v @ W
//	e_ij    = LeakyReLU(aSrc·z_j + aDst·z_i)
//	alpha_i = softmax_j(e_ij)
//	h_i     = sum_j alpha_ij * z_j       (ReLU on hidden layers)
//
// Attention makes the per-edge compute heavier than GraphSAGE, which is the
// interesting regime for DSP's communication savings (the inverse of the
// GCN comparison in Table 5).

const leakySlope = 0.2

// gatCache holds forward intermediates for the backward pass.
type gatCache struct {
	block *sample.Block
	x     *Matrix // layer input (inputNodes x in)
	z     *Matrix // projected input (inputNodes x out)
	// alpha are the attention weights and eRaw the attention logits after
	// LeakyReLU (its sign drives the LeakyReLU backward), for every
	// destination's self+neighbour slots back to back: see slots.
	alpha, eRaw []float32
	out         *Matrix // ReLU output, whose zeros are the mask (nil on the output layer)
}

// slots returns where destination i's attention slots sit in alpha and eRaw.
// Slot 0 is the self edge; slots 1.. are the sampled neighbours in Src order.
func (c *gatCache) slots(i int) (lo, hi int) {
	return int(c.block.SrcPtr[i]) + i, int(c.block.SrcPtr[i+1]) + i + 1
}

// slotNode returns the input-node row behind destination i's k-th slot.
func (c *gatCache) slotNode(i, k int) int {
	if k == 0 {
		return i
	}
	return int(c.block.SrcLocal[int(c.block.SrcPtr[i])+k-1])
}

// forwardGAT computes one attention layer, filling c.
func (m *Model) forwardGAT(l int, block *sample.Block, x *Matrix, c *gatCache) *Matrix {
	_, out := m.Cfg.dims(l)
	ws := &m.ws
	*c = gatCache{block: block, x: x}
	// Project every input node once.
	c.z = ws.matrix(x.R, out)
	MatMul(c.z, x, m.wNeigh[l].W)
	aSrc := m.attSrc[l].W.Data
	aDst := m.attDst[l].W.Data
	h := ws.matrix(len(block.Dst), out)
	c.alpha = ws.matrix(1, len(block.Src)+len(block.Dst)).Data
	c.eRaw = ws.matrix(1, len(c.alpha)).Data
	for i := range block.Dst {
		lo, hi := c.slots(i)
		e, a := c.eRaw[lo:hi], c.alpha[lo:hi]
		zDstScore := dot(c.z.Row(i), aDst)
		for k := range e {
			e[k] = leakyReLU(dot(c.z.Row(c.slotNode(i, k)), aSrc) + zDstScore)
		}
		softmaxInto(a, e)
		hr := h.Row(i)
		for k, ak := range a {
			axpy(hr, c.z.Row(c.slotNode(i, k)), ak)
		}
		flops += int64(len(e)) * int64(out) * 4
	}
	AddBiasInPlace(h, m.bias[l].W.Data)
	if l < m.Cfg.Layers-1 {
		ReLUInPlace(h)
		c.out = h
	}
	return h
}

// backwardGAT propagates gradients through the attention layer, returning
// the input gradient — nil at layer 0, where nothing reads it (Backward's
// comment gives the rule).
func (m *Model) backwardGAT(l int, c *gatCache, dh *Matrix) *Matrix {
	in, out := m.Cfg.dims(l)
	ws := &m.ws
	block := c.block
	if c.out != nil {
		ReLUBackwardInPlace(dh, c.out)
	}
	bg := m.bias[l].G.Data
	for i := 0; i < dh.R; i++ {
		axpy(bg, dh.Row(i), 1)
	}
	flops += int64(dh.R) * int64(dh.C)
	dz := ws.matrix(c.z.R, out)
	daSrc := m.attSrc[l].G.Data
	daDst := m.attDst[l].G.Data
	aSrc := m.attSrc[l].W.Data
	aDst := m.attDst[l].W.Data
	dAlphas := ws.matrix(1, len(c.alpha)).Data
	for i := range block.Dst {
		lo, hi := c.slots(i)
		a, eRaw, dAlpha := c.alpha[lo:hi], c.eRaw[lo:hi], dAlphas[lo:hi]
		dhr := dh.Row(i)
		// dh/dz via the weighted sum, and dh/dalpha.
		for k, ak := range a {
			s := c.slotNode(i, k)
			zr := c.z.Row(s)
			dzr := dz.Row(s)
			var da float32
			for j := range dhr {
				dzr[j] += ak * dhr[j]
				da += dhr[j] * zr[j]
			}
			dAlpha[k] = da
		}
		// Softmax backward: de_k = a_k * (dAlpha_k - sum_j a_j dAlpha_j).
		var mix float32
		for k := range a {
			mix += a[k] * dAlpha[k]
		}
		var dDstScore float32
		for k, ak := range a {
			de := ak * (dAlpha[k] - mix)
			de *= leakyGrad(eRaw[k])
			// e = aSrc·z_s + aDst·z_dst (pre-activation).
			s := c.slotNode(i, k)
			axpy(daSrc, c.z.Row(s), de)
			axpy(dz.Row(s), aSrc, de)
			dDstScore += de
		}
		axpy(daDst, c.z.Row(i), dDstScore)
		axpy(dz.Row(i), aDst, dDstScore)
		flops += int64(len(a)) * int64(out) * 8
	}
	// z = x @ W.
	gw := ws.matrix(in, out)
	MatMulAT(gw, c.x, dz)
	addInto(m.wNeigh[l].G, gw)
	if l == 0 {
		return nil
	}
	dx := ws.matrix(c.x.R, in)
	matMulBT(dx, dz, m.wNeigh[l].W, ws.matrix(out, in))
	return dx
}

func dot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	flops += int64(2 * len(a))
	return s
}

func leakyReLU(x float32) float32 {
	if x >= 0 {
		return x
	}
	return leakySlope * x
}

// leakyGrad returns d LeakyReLU(raw)/d raw given the POST-activation value
// stored in eRaw (sign is preserved by LeakyReLU, so the branch is valid).
func leakyGrad(post float32) float32 {
	if post >= 0 {
		return 1
	}
	return leakySlope
}

// softmaxInto writes softmax(e) into out (same length).
func softmaxInto(out, e []float32) {
	maxV := e[0]
	for _, v := range e {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range e {
		x := math.Exp(float64(v - maxV))
		out[i] = float32(x)
		sum += x
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
}
