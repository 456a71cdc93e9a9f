// Package nn implements the dense math for GNN training: a small matrix
// library, GraphSAGE, GCN and GAT models with manual backpropagation, losses
// and optimizers. The math is real — Figure 9's learning curves come from
// genuine gradient descent — and FlopCount counts the floating-point work
// the kernels execute. NominalFlops and NominalForwardFlops give the same
// numbers from a batch's shapes alone, and they are what the simulated GPUs
// are charged, whether or not the math runs. A rate taken from FlopCount over
// a train step — the benchmark's nn.trainstep_gflops — is an executed-FLOP
// rate.
package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	R, C int
	Data []float32
}

// NewMatrix allocates a zero matrix.
func NewMatrix(r, c int) *Matrix {
	return &Matrix{R: r, C: c, Data: make([]float32, r*c)}
}

// Row returns row i as a slice view.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.C : (i+1)*m.C] }

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// GlorotInit fills the matrix with Glorot-uniform values.
func (m *Matrix) GlorotInit(r *rng.RNG) {
	limit := float32(math.Sqrt(6.0 / float64(m.R+m.C)))
	for i := range m.Data {
		m.Data[i] = (2*float32(r.Float64()) - 1) * limit
	}
}

// flops accumulates the floating-point operations this package executes;
// tests and benchmarks snapshot it around a call. It is package-level because
// model forward/backward spans many helpers; the simulator is single-threaded
// per step so no synchronisation is needed.
var flops int64

// FlopCount returns the cumulative FLOPs executed so far.
func FlopCount() int64 { return flops }

// axpy computes dst[i] += a*x[i] over len(dst) elements: the inner loop of
// the model's aggregation, scatter and bias loops, and of rowGo, the
// products' portable body. On amd64 the body is SSE2 assembly, four lanes
// wide, that multiplies (MULPS) and then adds (ADDPS) and never fuses the
// two: each lane rounds the product and then the sum exactly as the scalar
// MULSS/ADDSS of the Go loop do, so every result has the bits axpyGo gives —
// which is what keeps losses, parameters, checkpoints and reports identical
// to the scalar kernels' at the same seed. An FMA rounds once and would move
// them all. With a == 1 the product is exact and axpy is a plain vector add.
func axpy(dst, x []float32, a float32) {
	if len(x) < len(dst) {
		panic(axpyLenError{len(dst), len(x)})
	}
	axpyVec(dst, x, a)
}

// axpyLenError is axpy's precondition failure. It is a value rather than a
// formatted string so that axpy stays within the inlining budget.
type axpyLenError struct{ dst, x int }

func (e axpyLenError) Error() string {
	return fmt.Sprintf("nn: axpy over %d elements, x has %d", e.dst, e.x)
}

// axpyGo is axpy in portable Go: the body on every architecture but amd64,
// and the oracle the tests hold the assembly to.
func axpyGo(dst, x []float32, a float32) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += float32(a * x[i])
	}
}

// MatMul computes out = a @ b (a: m×k, b: k×n). out must be m×n and is
// overwritten. Each output row is one rowKernel sum over the rows of b,
// skipping zero multipliers.
func MatMul(out, a, b *Matrix) {
	if a.C != b.R || out.R != a.R || out.C != b.C {
		panic(fmt.Sprintf("nn: matmul shape (%dx%d)@(%dx%d)->(%dx%d)", a.R, a.C, b.R, b.C, out.R, out.C))
	}
	for i := 0; i < a.R; i++ {
		rowKernel(out.Row(i), a.Row(i), 1, b.Data, b.C, a.C, true, false)
	}
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.C)
}

// MatMulAT computes out = aᵀ @ b (a: k×m, b: k×n, out: m×n) — the weight-
// gradient product of backprop. Output row i sums column i of a (stride m)
// against the rows of b, skipping zero multipliers; k goes in blocks of
// kChunk rows, every output row sweeping one block of b while it is in
// cache, so each element is still summed over k ascending.
func MatMulAT(out, a, b *Matrix) {
	if a.R != b.R || out.R != a.C || out.C != b.C {
		panic(fmt.Sprintf("nn: matmulAT shape (%dx%d)T@(%dx%d)->(%dx%d)", a.R, a.C, b.R, b.C, out.R, out.C))
	}
	if a.R == 0 {
		out.Zero()
	}
	for k0 := 0; k0 < a.R; k0 += kChunk {
		kn := min(kChunk, a.R-k0)
		for i := 0; i < a.C; i++ {
			rowKernel(out.Row(i), a.Data[k0*a.C+i:], a.C, b.Data[k0*b.C:], b.C, kn, true, k0 > 0)
		}
	}
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.C)
}

// matMulBT computes out = a @ bᵀ (a: m×k, b: n×k, out: m×n) — the input-
// gradient product of backprop — with the caller's k×n scratch for bᵀ.
// Transposing b once turns the product's n·m serial dot products into
// MatMul's row sums; every out[i][j] is still summed from +0 over k
// ascending, the dot product's own sequence of rounded operations. There is
// no zero skip: a dot product multiplies its zeros too (0·Inf is NaN).
func matMulBT(out, a, b, bt *Matrix) {
	if a.C != b.C || out.R != a.R || out.C != b.R || bt.R != b.C || bt.C != b.R {
		panic(fmt.Sprintf("nn: matmulBT shape (%dx%d)@(%dx%d)T->(%dx%d), scratch %dx%d",
			a.R, a.C, b.R, b.C, out.R, out.C, bt.R, bt.C))
	}
	for j := 0; j < b.R; j++ {
		for k, v := range b.Row(j) {
			bt.Data[k*bt.C+j] = v
		}
	}
	for i := 0; i < a.R; i++ {
		rowKernel(out.Row(i), a.Row(i), 1, bt.Data, bt.C, a.C, false, false)
	}
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.R)
}

// AddBiasInPlace adds bias (1×C) to every row of m.
func AddBiasInPlace(m *Matrix, bias []float32) {
	for i := 0; i < m.R; i++ {
		axpy(m.Row(i), bias, 1)
	}
	flops += int64(m.R) * int64(m.C)
}

// ReLUInPlace applies max(0, x). The output is its own mask for the backward
// pass: an entry was clamped exactly when it is not positive. NaN and −0
// become +0.
func ReLUInPlace(m *Matrix) {
	for i, v := range m.Data {
		m.Data[i] = math.Float32frombits(math.Float32bits(v) & positive(v))
	}
	flops += int64(len(m.Data))
}

// ReLUBackwardInPlace zeroes gradient entries where the activation was
// clamped; act is the ReLU's output.
func ReLUBackwardInPlace(g, act *Matrix) {
	gd := g.Data[:len(act.Data)]
	for i, v := range act.Data {
		gd[i] = math.Float32frombits(math.Float32bits(gd[i]) & positive(v))
	}
}

// positive is the mask of v > 0 — all ones when it holds, else zero, for NaN
// and −0 too — made by integer compare, so a half-negative ReLU input costs
// no branch mispredictions: v > 0 exactly when its bits minus one lie below
// those of +Inf.
func positive(v float32) uint32 {
	return uint32((int64(math.Float32bits(v)-1) - 0x7f800000) >> 63)
}

// SoftmaxCrossEntropy computes mean cross-entropy loss and accuracy over
// logits (rows) vs labels, and writes dlogits = (softmax - onehot)/rows.
func SoftmaxCrossEntropy(logits *Matrix, labels []int32, dlogits *Matrix) (loss float64, correct int) {
	rows := logits.R
	if rows == 0 {
		return 0, 0
	}
	for i := 0; i < rows; i++ {
		lr := logits.Row(i)
		dr := dlogits.Row(i)
		maxV, argmax := lr[0], 0
		for j, v := range lr {
			if v > maxV {
				maxV, argmax = v, j
			}
		}
		if int32(argmax) == labels[i] {
			correct++
		}
		var sum float64
		for j, v := range lr {
			e := math.Exp(float64(v - maxV))
			dr[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dr {
			dr[j] *= inv
		}
		loss += -math.Log(float64(dr[labels[i]]) + 1e-12)
		dr[labels[i]] -= 1
		for j := range dr {
			dr[j] /= float32(rows)
		}
	}
	flops += 5 * int64(rows) * int64(logits.C)
	return loss / float64(rows), correct
}
