package nn

import "repro/internal/cpuid"

// useAVX2 selects rowKernel's body: set once from the CPU probe, and by
// tests that run both bodies over the same inputs.
var useAVX2 = cpuid.AVX2

// kChunk is the most multipliers one call of the AVX2 body sums. It bounds
// the stack table rowKernel compacts into, and it is MatMulAT's block over
// k: 128 rows of a 64-wide b are 32 KB, which stay in L1 while every output
// row sweeps them (256 rows measured 20–25 % slower at 8448×100×64).
const kChunk = 128

// allK is the ks of a chunk that skips nothing: 0, 1, …, kChunk−1.
var allK = func() (ks [kChunk]int32) {
	for i := range ks {
		ks[i] = int32(i)
	}
	return
}()

// rowKernel is the one product kernel under MatMul, MatMulAT and matMulBT.
// It sets out[j] (or, with acc, adds to it) the sum over k < kn, ascending,
// of a[k·astride]·b[k·bstride+j], for every j < len(out), each term rounded
// as a product and then as a sum — never fused — so every output has the
// bits of the axpy sweep whichever body runs. With skip, zero multipliers
// (±0) are left out, as the products' old `if av == 0` did. rowKernel
// checks the extent of a and b once, which covers every index either body
// touches.
func rowKernel(out, a []float32, astride int, b []float32, bstride, kn int, skip, acc bool) {
	if kn > 0 {
		_ = a[(kn-1)*astride]
		if len(out) > 0 {
			_ = b[(kn-1)*bstride+len(out)-1]
		}
	}
	if !useAVX2 {
		rowGo(out, a, astride, b, bstride, kn, skip, acc)
		return
	}
	// The AVX2 body sums kChunk multipliers a call. With skip, the chunk's
	// non-zero k are compacted first, without a branch, so a half-zero row
	// costs half the time and no mispredictions. At least one call, so that
	// kn = 0 still sets out to +0.
	var buf [kChunk]int32
	for k0 := 0; k0 == 0 || k0 < kn; k0 += kChunk {
		a, b := a[k0*astride:], b[k0*bstride:]
		ks := allK[:min(kChunk, kn-k0)]
		if skip {
			ks = buf[:nonZeroAVX2(&buf, a, astride, len(ks))]
		}
		rowAVX2(out, a, astride, b, bstride, ks, acc || k0 > 0)
	}
}

// rowGo is rowKernel's portable body, the axpy sweep: the body wherever
// AVX2 is missing, and the oracle the tests hold rowAVX2 to.
func rowGo(out, a []float32, astride int, b []float32, bstride, kn int, skip, acc bool) {
	if !acc {
		clear(out)
	}
	for k := 0; k < kn; k++ {
		av := a[k*astride]
		if skip && av == 0 {
			continue
		}
		axpy(out, b[k*bstride:][:len(out)], av)
	}
}

// packLUT[m] lists, one byte each from the lowest, the lanes set in the
// 8-bit mask m: nonZeroAVX2's table from a lane mask to the compacted order.
var packLUT = func() (t [256]uint64) {
	for m := range t {
		for lane, n := 0, 0; lane < 8; lane++ {
			if m>>lane&1 != 0 {
				t[m] |= uint64(lane) << (8 * n)
				n++
			}
		}
	}
	return
}()
