// Package nn implements the dense math for GNN training: a small matrix
// library, GraphSAGE and GCN models with manual backpropagation, losses and
// optimizers. The math is real — Figure 9's learning curves come from
// genuine gradient descent — and every floating-point operation of the
// modelled kernel sequence is counted so the simulated GPUs can be charged
// the equivalent kernel time. The host executes all of them but one product:
// the first layer's input gradient, which nothing reads, is counted and not
// computed (Model.Backward). A rate taken from FlopCount over a train step —
// the benchmark's nn.trainstep_gflops — is therefore a charged-FLOP rate.
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

// flops accumulates the floating-point operations this package charges;
// callers snapshot it around a training step to charge simulated kernels.
// It is package-level because model forward/backward spans many helpers; the
// simulator is single-threaded per step so no synchronisation is needed.
var flops int64

// FlopCount returns the cumulative FLOPs charged so far.
func FlopCount() int64 { return flops }

// axpy computes dst[i] += a*x[i] over len(dst) elements: the one inner loop
// under MatMul, MatMulAT and MatMulBT and under the model's aggregation,
// scatter and bias loops. On amd64 the body is SSE2 assembly, four lanes
// wide, that multiplies (MULPS) and then adds (ADDPS) and never fuses the
// two: each lane rounds the product and then the sum exactly as the scalar
// MULSS/ADDSS of the Go loop do, so every result has the bits axpyGo gives —
// which is what keeps losses, parameters, checkpoints and reports identical
// to the scalar kernels' at the same seed. An FMA rounds once and would move
// them all. (SSE2 is in the GOAMD64=v1 baseline, so there is no CPU probe and
// no second amd64 path.) With a == 1 the product is exact and axpy is a plain
// vector add.
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
		dst[i] += a * x[i]
	}
}

// MatMul computes out = a @ b (a: m×k, b: k×n). out must be m×n and is
// overwritten. The loops are ordered i-k-j for streaming access: each output
// row is a sum of axpys over the rows of b.
func MatMul(out, a, b *Matrix) {
	if a.C != b.R || out.R != a.R || out.C != b.C {
		panic(fmt.Sprintf("nn: matmul shape (%dx%d)@(%dx%d)->(%dx%d)", a.R, a.C, b.R, b.C, out.R, out.C))
	}
	out.Zero()
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k := 0; k < a.C; k++ {
			av := ar[k]
			if av == 0 {
				continue
			}
			axpy(or, b.Row(k), av)
		}
	}
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.C)
}

// MatMulAT computes out = aᵀ @ b (a: k×m, b: k×n, out: m×n) — the weight-
// gradient product of backprop.
func MatMulAT(out, a, b *Matrix) {
	if a.R != b.R || out.R != a.C || out.C != b.C {
		panic(fmt.Sprintf("nn: matmulAT shape (%dx%d)T@(%dx%d)->(%dx%d)", a.R, a.C, b.R, b.C, out.R, out.C))
	}
	out.Zero()
	for k := 0; k < a.R; k++ {
		ar := a.Row(k)
		br := b.Row(k)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			axpy(out.Row(i), br, av)
		}
	}
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.C)
}

// MatMulBT computes out = a @ bᵀ (a: m×k, b: n×k, out: m×n) — the input-
// gradient product of backprop. out is overwritten.
func MatMulBT(out, a, b *Matrix) { matMulBT(out, a, b, NewMatrix(b.C, b.R)) }

// matMulBT is MatMulBT with the caller's k×n scratch for bᵀ. Transposing b
// once turns the product's n·m serial dot products into the row sweep of
// MatMul, which vectorises; every out[i][j] is still summed from +0 over k
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
	out.Zero()
	for i := 0; i < a.R; i++ {
		or := out.Row(i)
		for k, av := range a.Row(i) {
			axpy(or, bt.Row(k), av)
		}
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
// pass: an entry was clamped exactly when it is not positive.
func ReLUInPlace(m *Matrix) {
	for i, v := range m.Data {
		if !(v > 0) {
			m.Data[i] = 0
		}
	}
	flops += int64(len(m.Data))
}

// ReLUBackwardInPlace zeroes gradient entries where the activation was
// clamped; act is the ReLU's output.
func ReLUBackwardInPlace(g, act *Matrix) {
	for i, v := range act.Data {
		if !(v > 0) {
			g.Data[i] = 0
		}
	}
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
