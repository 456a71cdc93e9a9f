package nn

// rowAVX2 is rowKernel's AVX2 body over the multipliers ks, at most kChunk
// of them (kernel_amd64.s). It trusts its caller for every index: call
// rowKernel, never this.
//
//go:noescape
func rowAVX2(out, a []float32, astride int, b []float32, bstride int, ks []int32, acc bool)

// nonZeroAVX2 writes to ks, in order, each k < kn with a[k·astride] ≠ 0 —
// NaN included, ±0 not — and returns how many there are (kernel_amd64.s).
// kn ≤ kChunk, and every a[k·astride] must exist.
//
//go:noescape
func nonZeroAVX2(ks *[kChunk]int32, a []float32, astride, kn int) int
