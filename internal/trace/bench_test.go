package trace

import "testing"

// The trace slice of the per-package ledger: one Complete span per op, on an
// enabled tracer (a ring of 64k events, so memory stays bounded) and on a nil
// one, the disabled path every run takes, which must report 0 allocs/op.
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/trace/
func BenchmarkEmit(b *testing.B) {
	enabled := New()
	enabled.SetMaxEvents(1 << 16)
	for _, tc := range []struct {
		name string
		t    *Tracer
	}{{"enabled", enabled}, {"nil", nil}} {
		emit := func(i int) { tc.t.Complete("span", "stage", i&7, LaneKernels, float64(i), float64(i+1), nil) }
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				emit(i)
			}
		})
		if tc.t == nil {
			if a := testing.AllocsPerRun(100, func() { emit(1) }); a != 0 {
				b.Fatalf("a nil tracer allocates %v per emit, want 0", a)
			}
		}
	}
}
