package nn

import (
	"math"
	"testing"

	"repro/internal/cpuid"
	"repro/internal/rng"
)

// multiplierKinds are what FuzzRowKernel's kinds bytes pick for a
// multiplier: an ordinary value, the zeros the skip drops, a denormal,
// products that underflow or overflow, the infinities and two NaNs with
// different payloads (a NaN times a NaN keeps one of them, so the payload
// shows which operand each body reads first).
var multiplierKinds = []float32{
	0, // replaced by a normal draw
	0, float32(math.Copysign(0, -1)), 3 * math.SmallestNonzeroFloat32, 1e-39, 1e-20, 3e38,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc12345),
}

// FuzzRowKernel holds the AVX2 body — compaction and kernel — to the
// portable axpy sweep bit for bit (math.Float32bits, NaN payloads included)
// through rowKernel: widths 1–130 (every column tile and tail), 0 to
// 2·kChunk+1 multipliers (past a chunk boundary), strided multipliers, zero
// skip on and off, a fresh or an accumulated output, and the multiplier
// kinds above; b carries the same kinds at a few places.
func FuzzRowKernel(f *testing.F) {
	if !cpuid.AVX2 {
		f.Skip("no AVX2 body on this CPU")
	}
	for _, c := range []struct {
		width   uint8
		kn      uint16
		astride uint8
		skip    bool
		acc     bool
		kinds   []byte
	}{
		{0, 0, 0, true, false, nil},
		{6, 9, 0, true, false, []byte{1, 2, 0, 3}},
		{63, 100, 2, true, true, []byte{0, 1, 0, 2, 7, 0, 9}},
		{64, 128, 0, false, false, []byte{0, 0, 1, 4, 5, 8, 10}},
		{47, 257, 1, true, true, []byte{1, 0, 0, 2, 0, 9}},
		{99, 127, 99, true, false, []byte{2, 2, 2, 6, 1}},
		{129, 33, 4, false, true, []byte{9, 10, 0, 1}},
	} {
		f.Add(c.width, c.kn, c.astride, c.skip, c.acc, uint64(c.width)*7+1, c.kinds)
	}
	f.Fuzz(func(t *testing.T, width uint8, kn uint16, astride uint8, skip, acc bool, seed uint64, kinds []byte) {
		w, n, as := 1+int(width)%130, int(kn)%(2*kChunk+2), 1+int(astride)
		bs := w + int(seed%3)
		r := rng.New(seed)
		a := make([]float32, max(0, (n-1)*as+1))
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		for k := 0; k < n && len(kinds) > 0; k++ {
			if kind := int(kinds[k%len(kinds)]) % len(multiplierKinds); kind > 0 {
				a[k*as] = multiplierKinds[kind]
			}
		}
		b := make([]float32, max(0, (n-1)*bs+w))
		for i := range b {
			b[i] = float32(r.NormFloat64())
		}
		for i, kind := range kinds {
			if len(b) > 0 {
				b[(i*7919)%len(b)] = multiplierKinds[1+int(kind)%(len(multiplierKinds)-1)]
			}
		}
		start := make([]float32, w)
		for i := range start {
			start[i] = float32(r.NormFloat64())
		}

		probed := useAVX2
		defer func() { useAVX2 = probed }()
		var outs [2][]float32
		for body, avx2 := range []bool{false, true} {
			useAVX2 = avx2
			outs[body] = append([]float32(nil), start...)
			rowKernel(outs[body], a, as, b, bs, n, skip, acc)
		}
		for j := range start {
			if g, p := math.Float32bits(outs[1][j]), math.Float32bits(outs[0][j]); g != p {
				t.Fatalf("w=%d kn=%d astride=%d skip=%v acc=%v: out[%d] = %#x, axpy sweep %#x",
					w, n, as, skip, acc, j, g, p)
			}
		}
	})
}
