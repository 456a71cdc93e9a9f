//go:build !amd64

package nn

// The AVX2 bodies exist only on amd64, and useAVX2 is never set elsewhere.

func rowAVX2(out, a []float32, astride int, b []float32, bstride int, ks []int32, acc bool) {
	panic("nn: no AVX2 body off amd64")
}

func nonZeroAVX2(ks *[kChunk]int32, a []float32, astride, kn int) int {
	panic("nn: no AVX2 body off amd64")
}
