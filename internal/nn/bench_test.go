package nn

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/sample"
)

// The nn slice of the per-package ledger: ns/op, allocs/op and GFLOP/s for
// the axpy primitive, the three products at the benchmark's train-real layer
// shapes, and a whole forward pass and train step on a train-real batch.
// The products and axpy time the scalar loop they replaced beside them
// ("ref"), so one process gives both sides of the comparison:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/nn/

// reportGFLOPs turns a per-iteration FLOP count into the domain rate.
func reportGFLOPs(b *testing.B, flopsPerOp int64) {
	b.ReportMetric(float64(flopsPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkAxpy(b *testing.B) {
	r := rng.New(1)
	for _, n := range []int{47, 64, 100, 256} {
		dst, x := randMatrix(r, 1, n, 0).Data, randMatrix(r, 1, n, 0).Data
		for _, impl := range []struct {
			name string
			fn   func(dst, x []float32, a float32)
		}{{"sse2", axpy}, {"ref", axpyGo}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.fn(dst, x, 1e-3)
				}
				reportGFLOPs(b, 2*int64(n))
			})
		}
	}
}

// layerShapes are train-real's three layers as (rows, in, out): products-sim
// features into hidden 64 into 47 classes, batch 128 at fan-out [15,10,5].
// The multiplier of the two hidden-fed layers is half zeros, as after a ReLU.
var layerShapes = []struct {
	m, k, n int
	zeros   float64
}{{8448, 100, 64, 0}, {768, 64, 64, 0.5}, {128, 64, 47, 0.5}}

// benchProduct times a product and the loop it replaced on every layer shape.
func benchProduct(b *testing.B, p product) {
	for _, s := range layerShapes {
		r := rng.New(2)
		outS, aS, bS := p.shapes(s.m, s.k, s.n)
		out, a, bm := NewMatrix(outS[0], outS[1]), randMatrix(r, aS[0], aS[1], s.zeros), randMatrix(r, bS[0], bS[1], 0)
		for _, impl := range []struct {
			name string
			fn   func(out, a, b *Matrix)
		}{{"axpy", p.fn}, {"ref", p.ref}} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.m, s.k, s.n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.fn(out, a, bm)
				}
				reportGFLOPs(b, 2*int64(s.m)*int64(s.k)*int64(s.n))
			})
		}
	}
}

func BenchmarkMatMul(b *testing.B)   { benchProduct(b, prodMatMul) }
func BenchmarkMatMulAT(b *testing.B) { benchProduct(b, prodMatMulAT) }
func BenchmarkMatMulBT(b *testing.B) { benchProduct(b, prodMatMulBT) }

// benchStep is train-real's model and one batch of its size.
func benchStep(b *testing.B) (*Model, *sample.MiniBatch, []float32, []int32) {
	cfg := gen.StandardDataset("products", 2).Config
	mb, feats, labels, inDim := genBatch(b, cfg, 128, []int{15, 10, 5})
	return NewModel(Config{Arch: SAGE, InDim: inDim, Hidden: 64, Classes: cfg.NumClasses, Layers: 3}, 1), mb, feats, labels
}

func BenchmarkForward(b *testing.B) {
	m, mb, feats, _ := benchStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := FlopCount()
	for i := 0; i < b.N; i++ {
		m.Forward(mb, feats)
	}
	reportGFLOPs(b, (FlopCount()-start)/int64(b.N))
}

// BenchmarkTrainStep reports a charged-FLOP rate: the layer-0 input gradient
// is counted (the simulated GPU runs that kernel) but not executed.
func BenchmarkTrainStep(b *testing.B) {
	m, mb, feats, labels := benchStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := FlopCount()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		m.TrainStep(mb, feats, labels)
	}
	reportGFLOPs(b, (FlopCount()-start)/int64(b.N))
}
