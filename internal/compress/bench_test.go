package compress

import (
	"math"
	"testing"
)

// The compress slice of the per-package ledger: encode and decode
// throughput (GB/s of raw float32 input, via SetBytes) and allocs/op for
// each lossy codec on a gradient-like vector:
//
//	go test -run '^$' -bench . -benchmem ./internal/compress/

// benchElems is a 256 KiB float32 vector, several int8 chunks and large
// enough that TopK's heap has real work.
const benchElems = 64 << 10

// benchVals is a deterministic, sign-mixed vector with no constant chunk, so
// int8 takes its stochastic-rounding path everywhere.
func benchVals() []float32 {
	vals := make([]float32, benchElems)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)*0.37)) * 0.05
	}
	return vals
}

var benchCodecs = []Codec{NewInt8(7), FP16{}, NewTopK(0.1)}

func BenchmarkEncode(b *testing.B) {
	vals := benchVals()
	for _, c := range benchCodecs {
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(4 * benchElems)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Encode(vals)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	vals := benchVals()
	out := make([]float32, benchElems)
	for _, c := range benchCodecs {
		enc := c.Encode(vals)
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(4 * benchElems)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Decode(enc, out)
			}
		})
	}
}
