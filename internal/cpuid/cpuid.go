// Package cpuid probes the host CPU once for the instruction sets the
// hand-written kernels use. It imports nothing of the repository, so every
// package with an assembly body (nn's row kernel, sample's row draws) asks
// the same probe.
package cpuid

// AVX2 reports whether the CPU has AVX2 and the OS saves YMM state. It is
// false off amd64, where no assembly body exists.
var AVX2 = hasAVX2()
