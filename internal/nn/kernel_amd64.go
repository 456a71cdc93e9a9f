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

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state:
// OSXSAVE, AVX and POPCNT in leaf 1, the XMM and YMM bits of XCR0, AVX2 in
// leaf 7. (Every CPU with AVX2 has POPCNT; nonZeroAVX2 uses it.)
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&popcnt == 0 || ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
