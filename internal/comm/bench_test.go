package comm

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/hw"
	"repro/internal/sim"
)

// The comm slice of the per-package ledger: ns/op and allocs/op of one
// 4-rank feature-reply exchange under an int8 codec (an op is the whole
// exchange, every rank's part of it):
//
//	go test -run '^$' -bench . -benchmem ./internal/comm/
//
// "counts" is AllToAllCounts, the modelled reply; "payloads" is AllToAll
// over posted float32 vectors of the same lengths, which prices identically;
// "payloads+roundtrip" also encodes and decodes every cross-GPU segment the
// way a receiver observing codec values would — what the reply cost while
// all-to-alls round-tripped through the codec.
func BenchmarkFeatureReply(b *testing.B) {
	const n, rows, dim = 4, 512, 100
	codec := compress.NewInt8(7)
	o := Compressed(codec, hw.TrafficFeature)
	for _, mode := range []string{"counts", "payloads", "payloads+roundtrip"} {
		b.Run(mode, func(b *testing.B) {
			m, c := newWorld(n)
			for r := 0; r < n; r++ {
				counts := make([]int, n)
				for q := range counts {
					if q != r {
						counts[q] = (rows + 37*q) * dim
					}
				}
				payloads := zeroPayloads(counts)
				m.Eng.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
					for i := 0; i < b.N; i++ {
						if mode == "counts" {
							AllToAllCounts(c, p, r, counts, nil, o)
							continue
						}
						in := AllToAll(c, p, r, payloads, o)
						if mode == "payloads+roundtrip" {
							for q, seg := range in {
								if q != r {
									compress.Roundtrip(codec, seg)
								}
							}
						}
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := m.Eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
