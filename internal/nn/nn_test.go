package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cpuid"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sample"
)

func TestMatMulCorrect(t *testing.T) {
	for _, body := range bodies(t) {
		useAVX2 = body.avx2
		a := &Matrix{R: 2, C: 3, Data: []float32{1, 2, 3, 4, 5, 6}}
		b := &Matrix{R: 3, C: 2, Data: []float32{7, 8, 9, 10, 11, 12}}
		out := NewMatrix(2, 2)
		MatMul(out, a, b)
		want := []float32{58, 64, 139, 154}
		for i := range want {
			if out.Data[i] != want[i] {
				t.Fatalf("%s: matmul = %v, want %v", body.name, out.Data, want)
			}
		}
	}
}

func TestMatMulTransposesAgree(t *testing.T) {
	for _, body := range bodies(t) {
		useAVX2 = body.avx2
		r := rng.New(3)
		a := NewMatrix(5, 4)
		b := NewMatrix(5, 6)
		for i := range a.Data {
			a.Data[i] = float32(r.NormFloat64())
		}
		for i := range b.Data {
			b.Data[i] = float32(r.NormFloat64())
		}
		// aT @ b via MatMulAT == transpose(a) @ b via MatMul.
		at := NewMatrix(4, 5)
		for i := 0; i < 5; i++ {
			for j := 0; j < 4; j++ {
				at.Data[j*5+i] = a.Data[i*4+j]
			}
		}
		want := NewMatrix(4, 6)
		MatMul(want, at, b)
		got := NewMatrix(4, 6)
		MatMulAT(got, a, b)
		for i := range want.Data {
			if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
				t.Fatalf("%s: MatMulAT mismatch at %d", body.name, i)
			}
		}
		// a @ bT via matMulBT.
		bt := NewMatrix(6, 5)
		for i := 0; i < 5; i++ {
			for j := 0; j < 6; j++ {
				bt.Data[j*5+i] = b.Data[i*6+j]
			}
		}
		want2 := NewMatrix(4, 5)
		MatMul(want2, got, bt) // (4x6)@(6x5)
		got2 := NewMatrix(4, 5)
		matMulBT(got2, got, b, NewMatrix(6, 5))
		for i := range want2.Data {
			if math.Abs(float64(want2.Data[i]-got2.Data[i])) > 1e-3 {
				t.Fatalf("%s: matMulBT mismatch at %d: %v vs %v", body.name, i, got2.Data[i], want2.Data[i])
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := &Matrix{R: 2, C: 3, Data: []float32{10, 0, 0, 0, 10, 0}}
	d := NewMatrix(2, 3)
	loss, correct := SoftmaxCrossEntropy(logits, []int32{0, 1}, d)
	if correct != 2 {
		t.Fatalf("correct=%d", correct)
	}
	if loss > 0.01 {
		t.Fatalf("confident correct predictions, loss=%v", loss)
	}
	// Gradient rows sum to ~0 (softmax minus one-hot).
	for i := 0; i < 2; i++ {
		var s float64
		for _, v := range d.Row(i) {
			s += float64(v)
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("dlogits row %d sums to %v", i, s)
		}
	}
}

// tinyBatch builds a small deterministic minibatch for gradient checks.
func tinyBatch(t testing.TB, layers int) (*sample.MiniBatch, []float32, []int32, int) {
	fan := make([]int, layers)
	for i := range fan {
		fan[i] = 3
	}
	return genBatch(t, gen.Config{
		Name: "t", Nodes: 200, AvgDegree: 8, FeatDim: 5, NumClasses: 3, Seed: 12,
	}, 6, fan)
}

// genBatch samples the first nSeeds training nodes of a generated dataset
// and gathers their input features and seed labels.
func genBatch(t testing.TB, cfg gen.Config, nSeeds int, fan []int) (*sample.MiniBatch, []float32, []int32, int) {
	t.Helper()
	d := gen.Generate(cfg)
	rows := drawRows(d)
	seeds := d.TrainIdx[:nSeeds]
	mb := sample.Reference(d.G, seeds, sample.Config{Fanout: fan}, 9)
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
	inputs := mb.InputNodes()
	feats := make([]float32, len(inputs)*d.FeatDim)
	for i, v := range inputs {
		copy(feats[i*d.FeatDim:(i+1)*d.FeatDim], rows[int(v)*d.FeatDim:(int(v)+1)*d.FeatDim])
	}
	labels := make([]int32, len(seeds))
	for i, s := range seeds {
		labels[i] = d.Labels[s]
	}
	return mb, feats, labels, d.FeatDim
}

// drawRows draws d's feature rows in node order.
func drawRows(d *gen.Dataset) []float32 {
	n := d.G.NumNodes()
	slot := make([]graph.NodeID, n)
	for v := range slot {
		slot[v] = graph.NodeID(v)
	}
	rows := make([]float32, n*d.FeatDim)
	d.Rows.Draw(rows, slot)
	return rows
}

func gradCheck(t *testing.T, arch Arch) {
	mb, feats, labels, inDim := tinyBatch(t, 2)
	cfg := Config{Arch: arch, InDim: inDim, Hidden: 4, Classes: 3, Layers: 2}
	m := NewModel(cfg, 42)
	m.ZeroGrads()
	featsCopy := append([]float32(nil), feats...)
	m.TrainStep(mb, featsCopy, labels)

	lossAt := func() float64 {
		f := append([]float32(nil), feats...)
		loss, _ := m.Evaluate(mb, f, labels)
		return loss
	}
	central := func(p *Param, j int, eps float32) float64 {
		orig := p.W.Data[j]
		p.W.Data[j] = orig + eps
		lp := lossAt()
		p.W.Data[j] = orig - eps
		lm := lossAt()
		p.W.Data[j] = orig
		return (lp - lm) / (2 * float64(eps))
	}
	const eps = 1e-2
	checked := 0
	r := rng.New(5)
	for _, p := range m.Params {
		for trial := 0; trial < 4; trial++ {
			j := r.Intn(len(p.W.Data))
			numeric := central(p, j, eps)
			analytic := float64(p.G.Data[j])
			scale := math.Max(math.Abs(numeric), math.Abs(analytic))
			if scale < 1e-4 {
				continue // both ~zero
			}
			// Richardson consistency: if halving eps moves the estimate a
			// lot, the loss is not smooth here (a ReLU kink inside the
			// probe interval) — the comparison is meaningless, skip it.
			if refined := central(p, j, eps/2); math.Abs(refined-numeric)/scale > 0.05 {
				continue
			}
			if math.Abs(numeric-analytic)/scale > 0.08 {
				t.Errorf("%s[%d]: numeric %v vs analytic %v", p.Name, j, numeric, analytic)
			}
			checked++
		}
	}
	if checked < 8 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestGradCheckSAGE(t *testing.T) { gradCheck(t, SAGE) }
func TestGradCheckGCN(t *testing.T)  { gradCheck(t, GCN) }

func TestTrainingLearns(t *testing.T) {
	// End-to-end: GraphSAGE on the community dataset should comfortably
	// beat chance within a few dozen steps.
	d := gen.Generate(gen.Config{
		Name: "t", Nodes: 2000, AvgDegree: 10, FeatDim: 16, NumClasses: 5, Seed: 33,
	})
	rows := drawRows(d)
	cfg := Config{Arch: SAGE, InDim: 16, Hidden: 32, Classes: 5, Layers: 2}
	m := NewModel(cfg, 7)
	opt := NewAdam(0.01)
	scfg := sample.Config{Fanout: []int{5, 5}}
	batch := 128
	gather := func(mb *sample.MiniBatch) ([]float32, []int32) {
		inputs := mb.InputNodes()
		feats := make([]float32, len(inputs)*d.FeatDim)
		for i, v := range inputs {
			copy(feats[i*d.FeatDim:(i+1)*d.FeatDim], rows[int(v)*d.FeatDim:(int(v)+1)*d.FeatDim])
		}
		labels := make([]int32, len(mb.Seeds))
		for i, s := range mb.Seeds {
			labels[i] = d.Labels[s]
		}
		return feats, labels
	}
	step := 0
	for epoch := 0; epoch < 4; epoch++ {
		for off := 0; off+batch <= len(d.TrainIdx); off += batch {
			seeds := d.TrainIdx[off : off+batch]
			mb := sample.Reference(d.G, seeds, scfg, rng.Mix(1, uint64(step)))
			feats, labels := gather(mb)
			m.ZeroGrads()
			m.TrainStep(mb, feats, labels)
			opt.Step(m)
			step++
		}
	}
	// Validation accuracy.
	val := d.ValIdx[:200]
	mb := sample.Reference(d.G, val, scfg, 999)
	feats, labels := gather(mb)
	_, correct := m.Evaluate(mb, feats, labels)
	acc := float64(correct) / float64(len(val))
	if acc < 0.6 {
		t.Fatalf("validation accuracy %.2f after training, want >0.6 (chance 0.2)", acc)
	}
}

func TestGCNFlopsLighterThanSAGE(t *testing.T) {
	mb, _, _, inDim := tinyBatch(t, 3)
	sage := NominalFlops(Config{Arch: SAGE, InDim: inDim, Hidden: 64, Classes: 3, Layers: 3}, mb)
	gcn := NominalFlops(Config{Arch: GCN, InDim: inDim, Hidden: 64, Classes: 3, Layers: 3}, mb)
	if gcn >= sage {
		t.Fatalf("GCN flops %d not below GraphSAGE %d", gcn, sage)
	}
}

// TestNominalFlopsTracksRealFlops: the price is the work. NominalFlops equals
// the FLOPs a TrainStep counts and NominalForwardFlops those a Forward
// counts, exactly, for every architecture at one to three layers, on a
// sampled batch and on a batch with no seeds.
func TestNominalFlopsTracksRealFlops(t *testing.T) {
	d := gen.Generate(gen.Config{Name: "t", Nodes: 200, AvgDegree: 8, FeatDim: 5, NumClasses: 3, Seed: 12})
	for layers := 1; layers <= 3; layers++ {
		mb, feats, labels, inDim := tinyBatch(t, layers)
		fan := make([]int, layers)
		for i := range fan {
			fan[i] = 3
		}
		empty := sample.Reference(d.G, []graph.NodeID{}, sample.Config{Fanout: fan}, 1)
		for _, arch := range []Arch{SAGE, GCN, GAT} {
			cfg := Config{Arch: arch, InDim: inDim, Hidden: 8, Classes: 3, Layers: layers}
			m := NewModel(cfg, 1)
			for _, b := range []struct {
				name   string
				mb     *sample.MiniBatch
				feats  []float32
				labels []int32
			}{{"sampled", mb, feats, labels}, {"no seeds", empty, nil, nil}} {
				start := FlopCount()
				m.Forward(b.mb, b.feats)
				forward := FlopCount() - start
				m.ZeroGrads()
				start = FlopCount()
				m.TrainStep(b.mb, b.feats, b.labels)
				step := FlopCount() - start
				if p := NominalForwardFlops(cfg, b.mb); p != forward {
					t.Errorf("%v/%d layers, %s: NominalForwardFlops %d, Forward counted %d", arch, layers, b.name, p, forward)
				}
				if p := NominalFlops(cfg, b.mb); p != step {
					t.Errorf("%v/%d layers, %s: NominalFlops %d, TrainStep counted %d", arch, layers, b.name, p, step)
				}
			}
		}
	}
}

func TestGradVectorRoundTrip(t *testing.T) {
	cfg := Config{Arch: SAGE, InDim: 4, Hidden: 4, Classes: 2, Layers: 2}
	m := NewModel(cfg, 1)
	n := m.ParamCount()
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = float32(i)
	}
	m.SetGradVector(buf)
	out := make([]float32, n)
	m.GradVector(out)
	for i := range buf {
		if out[i] != buf[i] {
			t.Fatalf("grad vector round trip broken at %d", i)
		}
	}
}

func TestModelsDeterministic(t *testing.T) {
	cfg := Config{Arch: GCN, InDim: 4, Hidden: 4, Classes: 2, Layers: 2}
	a, b := NewModel(cfg, 5), NewModel(cfg, 5)
	pa := make([]float32, a.ParamCount())
	pb := make([]float32, b.ParamCount())
	a.ParamVector(pa)
	b.ParamVector(pb)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed, different init")
		}
	}
}

func TestAdamReducesLossFast(t *testing.T) {
	// Single-parameter sanity: Adam drives a quadratic toward zero.
	cfg := Config{Arch: GCN, InDim: 1, Hidden: 1, Classes: 2, Layers: 1}
	m := NewModel(cfg, 2)
	opt := NewAdam(0.05)
	// Fake gradient = parameter value (minimising 0.5*w^2).
	for it := 0; it < 200; it++ {
		for _, p := range m.Params {
			copy(p.G.Data, p.W.Data)
		}
		opt.Step(m)
	}
	v := make([]float32, m.ParamCount())
	m.ParamVector(v)
	for i, x := range v {
		if math.Abs(float64(x)) > 0.05 {
			t.Fatalf("param %d did not converge: %v", i, x)
		}
	}
}

func TestEmptySeedBatchSafe(t *testing.T) {
	d := gen.Generate(gen.Config{
		Name: "t", Nodes: 100, AvgDegree: 6, FeatDim: 3, NumClasses: 2, Seed: 8,
	})
	mb := sample.Reference(d.G, []graph.NodeID{}, sample.Config{Fanout: []int{2}}, 1)
	m := NewModel(Config{Arch: SAGE, InDim: 3, Hidden: 2, Classes: 2, Layers: 1}, 1)
	m.ZeroGrads()
	loss, correct := m.TrainStep(mb, nil, nil)
	if loss != 0 || correct != 0 {
		t.Fatalf("empty batch: loss=%v correct=%d", loss, correct)
	}
}

func TestGradCheckGAT(t *testing.T) { gradCheck(t, GAT) }

func TestGATTrainingLearns(t *testing.T) {
	d := gen.Generate(gen.Config{
		Name: "gat", Nodes: 1500, AvgDegree: 10, FeatDim: 12, NumClasses: 4, Seed: 55,
	})
	rows := drawRows(d)
	cfg := Config{Arch: GAT, InDim: 12, Hidden: 16, Classes: 4, Layers: 2}
	m := NewModel(cfg, 3)
	opt := NewAdam(0.01)
	scfg := sample.Config{Fanout: []int{5, 5}}
	step := 0
	for epoch := 0; epoch < 5; epoch++ {
		for off := 0; off+64 <= len(d.TrainIdx); off += 64 {
			seeds := d.TrainIdx[off : off+64]
			mb := sample.Reference(d.G, seeds, scfg, rng.Mix(2, uint64(step)))
			inputs := mb.InputNodes()
			feats := make([]float32, len(inputs)*d.FeatDim)
			for i, v := range inputs {
				copy(feats[i*d.FeatDim:(i+1)*d.FeatDim], rows[int(v)*d.FeatDim:(int(v)+1)*d.FeatDim])
			}
			labels := make([]int32, len(seeds))
			for i, s := range seeds {
				labels[i] = d.Labels[s]
			}
			m.ZeroGrads()
			m.TrainStep(mb, feats, labels)
			opt.Step(m)
			step++
		}
	}
	val := d.ValIdx[:150]
	mb := sample.Reference(d.G, val, scfg, 77)
	inputs := mb.InputNodes()
	feats := make([]float32, len(inputs)*d.FeatDim)
	for i, v := range inputs {
		copy(feats[i*d.FeatDim:(i+1)*d.FeatDim], rows[int(v)*d.FeatDim:(int(v)+1)*d.FeatDim])
	}
	labels := make([]int32, len(val))
	for i, s := range val {
		labels[i] = d.Labels[s]
	}
	_, correct := m.Evaluate(mb, feats, labels)
	if acc := float64(correct) / float64(len(val)); acc < 0.5 {
		t.Fatalf("GAT validation accuracy %.2f, want >0.5 (chance 0.25)", acc)
	}
}

func TestGATHeavierThanSAGE(t *testing.T) {
	mb, _, _, inDim := tinyBatch(t, 2)
	sage := NominalFlops(Config{Arch: SAGE, InDim: inDim, Hidden: 64, Classes: 3, Layers: 2}, mb)
	gat := NominalFlops(Config{Arch: GAT, InDim: inDim, Hidden: 64, Classes: 3, Layers: 2}, mb)
	if gat <= sage {
		t.Fatalf("GAT nominal flops %d not above GraphSAGE %d (projection covers all input nodes)", gat, sage)
	}
}

func TestGATAttentionWeightsNormalized(t *testing.T) {
	mb, feats, _, inDim := tinyBatch(t, 1)
	cfg := Config{Arch: GAT, InDim: inDim, Hidden: 4, Classes: 3, Layers: 1}
	m := NewModel(cfg, 9)
	_, caches := m.Forward(mb, feats)
	gc := caches[0].gat
	if gc == nil {
		t.Fatal("no GAT cache")
	}
	for i := range gc.block.Dst {
		lo, hi := gc.slots(i)
		var sum float64
		for _, v := range gc.alpha[lo:hi] {
			if v < 0 {
				t.Fatalf("negative attention weight at dst %d", i)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("attention weights at dst %d sum to %v", i, sum)
		}
	}
}

// goldenBatch is the fixed batch of the pinned runs: widths 37/21/7 leave
// every vector-loop remainder (16-, 4- and 1-wide tails) in play.
func goldenBatch(t testing.TB) (*sample.MiniBatch, []float32, []int32, int) {
	return genBatch(t, gen.Config{
		Name: "golden", Nodes: 3000, AvgDegree: 10, FeatDim: 37, NumClasses: 7, Seed: 1717,
	}, 96, []int{4, 4, 4})
}

// paramHash is FNV-1a over the bits of every parameter.
func paramHash(m *Model) uint64 {
	v := make([]float32, m.ParamCount())
	m.ParamVector(v)
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTrainingBitsPinned holds five Adam steps of each architecture to the
// parameter bits of the scalar triple-loop kernels and to the FLOPs counted.
// The hashes were recorded at commit 6c6d167, before any kernel was touched,
// the way sim's TestEventOrderPinned pins event order: a kernel that
// reorders, fuses or skips one rounded operation moves the hash. The FLOP
// column was re-recorded when layer 0's input gradient, which is never
// computed, stopped being counted; a kernel that skips or adds work moves it.
// GAT's entry is the recorded count plus its bias gradient, one axpy per
// destination row of every layer and step, which was summed but not counted.
// They are amd64 values — on arm64 the Go compiler fuses a*b+c in the scalar
// loops, and always has, so the test only runs where the constants were
// taken.
func TestTrainingBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned constants are amd64 values (arm64 fuses a*b+c)")
	}
	mb, feats, labels, inDim := goldenBatch(t)
	const steps = 5
	var gatBias int64
	for l, b := range mb.Blocks {
		out := int64(21)
		if l == len(mb.Blocks)-1 {
			out = 7
		}
		gatBias += steps * int64(len(b.Dst)) * out
	}
	for _, tc := range []struct {
		arch  Arch
		hash  uint64
		flops int64
	}{
		{SAGE, 0x6c506119cdeefa3e, 37112030},
		{GCN, 0xc79e7e704c5217d8, 19563170},
		{GAT, 0xbad4abda87cf2f54, 43628235 + gatBias},
	} {
		m := NewModel(Config{Arch: tc.arch, InDim: inDim, Hidden: 21, Classes: 7, Layers: 3}, 17)
		opt := NewAdam(0.01)
		start := FlopCount()
		for step := 0; step < steps; step++ {
			m.ZeroGrads()
			m.TrainStep(mb, feats, labels)
			opt.Step(m)
		}
		if h, f := paramHash(m), FlopCount()-start; h != tc.hash || f != tc.flops {
			t.Errorf("%v: param hash %#x, %d flops; pinned %#x, %d", tc.arch, h, f, tc.hash, tc.flops)
		}
	}
}

// refMatMul, refMatMulAT and refMatMulBT are the scalar triple loops the
// row kernels replaced, kept verbatim as the oracle of the differential
// tests and the baseline of the benchmarks.
func refMatMul(out, a, b *Matrix) {
	out.Zero()
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k := 0; k < a.C; k++ {
			av := ar[k]
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j := range br {
				or[j] += float32(av * br[j])
			}
		}
	}
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.C)
}

func refMatMulAT(out, a, b *Matrix) {
	out.Zero()
	for k := 0; k < a.R; k++ {
		ar := a.Row(k)
		br := b.Row(k)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			or := out.Row(i)
			for j := range br {
				or[j] += float32(av * br[j])
			}
		}
	}
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.C)
}

func refMatMulBT(out, a, b *Matrix) {
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := 0; j < b.R; j++ {
			br := b.Row(j)
			var s float32
			for k := range ar {
				s += float32(ar[k] * br[k])
			}
			or[j] = s
		}
	}
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.R)
}

// product pairs one of the three products with the loop it replaced; shapes
// gives the (rows, cols) of out, a and b for a call of 2·m·k·n FLOPs, so all
// three can be driven over one list of layer shapes.
type product struct {
	name    string
	fn, ref func(out, a, b *Matrix)
	shapes  func(m, k, n int) (out, a, b [2]int)
}

var (
	prodMatMul = product{"MatMul", MatMul, refMatMul, func(m, k, n int) (out, a, b [2]int) {
		return [2]int{m, n}, [2]int{m, k}, [2]int{k, n} // h = x @ W
	}}
	prodMatMulAT = product{"MatMulAT", MatMulAT, refMatMulAT, func(m, k, n int) (out, a, b [2]int) {
		return [2]int{k, n}, [2]int{m, k}, [2]int{m, n} // gw = xᵀ @ dh
	}}
	prodMatMulBT = product{"matMulBT", mulBT, refMatMulBT, func(m, k, n int) (out, a, b [2]int) {
		return [2]int{m, k}, [2]int{m, n}, [2]int{k, n} // dx = dh @ Wᵀ
	}}
	products = []product{prodMatMul, prodMatMulAT, prodMatMulBT}
)

// btScratch is mulBT's bᵀ, kept across calls of one shape so that a
// benchmark's calls allocate nothing.
var btScratch = NewMatrix(0, 0)

// mulBT is matMulBT with the scratch it needs.
func mulBT(out, a, b *Matrix) {
	if btScratch.R != b.C || btScratch.C != b.R {
		btScratch = NewMatrix(b.C, b.R)
	}
	matMulBT(out, a, b, btScratch)
}

// body is one of rowKernel's two bodies, named as the ledger names them.
type body struct {
	name string
	avx2 bool
}

// bodies lists the bodies this CPU can run — the portable axpy sweep, and
// the AVX2 kernel where the CPU has it — for a test or benchmark that sets
// useAVX2 to each in turn; the probe's choice is restored when tb ends.
func bodies(tb testing.TB) []body {
	probed := useAVX2
	tb.Cleanup(func() { useAVX2 = probed })
	bs := []body{{"axpy", false}}
	if cpuid.AVX2 {
		bs = append(bs, body{"kernel", true})
	}
	return bs
}

// randMatrix fills a rows×cols matrix with normal values, a `zeros` fraction
// of them replaced by 0 the way a ReLU leaves them.
func randMatrix(r *rng.RNG, rows, cols int, zeros float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if r.Float64() >= zeros {
			m.Data[i] = float32(r.NormFloat64())
		}
	}
	return m
}

// specials are the values a vector kernel is most likely to treat differently
// from a scalar one: signed zero, denormals, values whose products are
// denormal or underflow, infinities and NaN.
var specials = []float32{
	float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32,
	1e-39, 1e-20, -1e-23, 3e38, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// salt overwrites a few entries of v with the specials. Few, because an Inf or
// a NaN poisons every sum it enters and a poisoned sum only checks "NaN here
// too".
func salt(r *rng.RNG, v []float32) {
	if len(v) < 4*len(specials) {
		return
	}
	for _, s := range specials {
		v[r.Intn(len(v))] = s
	}
}

// sameBits is the kernels' contract: identical bits for every non-NaN result,
// NaN exactly where the reference has NaN (payload bits are not part of it).
func sameBits(got, want []float32) (int, bool) {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i, false
		}
	}
	return 0, true
}

// TestAxpyMatchesGo holds the vector kernel to the portable loop, bit for
// bit, at every length through three 16-wide blocks (so every len%16 and
// len%4 tail) and every 4-byte offset within a 16-byte line, and checks that
// it writes nothing past len(dst): both slices are cut from backing arrays
// that continue with sentinels. (On architectures other than amd64 the two
// are the same loop and the test is trivially green.)
func TestAxpyMatchesGo(t *testing.T) {
	const sentinel = float32(12345.678)
	r := rng.New(21)
	for n := 0; n <= 3*16+3; n++ {
		for off := 0; off < 4; off++ {
			for _, a := range append([]float32{0, 1, -1, 0.37}, specials...) {
				dstBack := randMatrix(r, 1, off+n+20, 0.1).Data
				xBack := randMatrix(r, 1, off+n+20, 0.1).Data
				salt(r, dstBack[off:off+n])
				salt(r, xBack[off:off+n])
				for i := off + n; i < len(dstBack); i++ {
					dstBack[i], xBack[i] = sentinel, sentinel
				}
				want := append([]float32(nil), dstBack...)
				axpyGo(want[off:off+n], xBack[off:off+n], a)
				xWant := append([]float32(nil), xBack...)
				// x is handed over with its sentinels in reach: only
				// len(dst) of it may be used.
				axpy(dstBack[off:off+n], xBack[off:], a)
				if i, ok := sameBits(dstBack, want); !ok {
					t.Fatalf("n=%d off=%d a=%v: dst[%d] = %v (%#x), axpyGo gives %v (%#x)", n, off, a,
						i-off, dstBack[i], math.Float32bits(dstBack[i]), want[i], math.Float32bits(want[i]))
				}
				if i, ok := sameBits(xBack, xWant); !ok {
					t.Fatalf("n=%d off=%d: axpy wrote x[%d]", n, off, i-off)
				}
			}
		}
	}
}

func TestAxpyShortOperandPanics(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "5") || !strings.Contains(msg, "3") {
			t.Fatalf("axpy over 5 elements with 3 of x: recovered %q, want a panic naming both lengths", msg)
		}
	}()
	axpy(make([]float32, 5), make([]float32, 3, 8), 1)
}

// TestProductShapePanicsNameShapes: a mis-shaped product reports all three
// shapes, whichever product it is.
func TestProductShapePanicsNameShapes(t *testing.T) {
	for _, p := range products {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"2x3", "4x5", "6x7"} {
					if !strings.Contains(msg, want) {
						t.Errorf("%s: recovered %q, want a panic naming %s", p.name, msg, want)
					}
				}
			}()
			p.fn(NewMatrix(6, 7), NewMatrix(2, 3), NewMatrix(4, 5))
		}()
	}
}

// TestProductsMatchReference holds the three products, under each rowKernel
// body, to the scalar triple loops they replaced, bit for bit, over odd and
// layer-sized shapes (widths with every kind of column tile and tail,
// contractions past one kChunk), every multiplier sparsity the zero skip can
// meet, and operands salted with the specials.
func TestProductsMatchReference(t *testing.T) {
	for _, body := range bodies(t) {
		useAVX2 = body.avx2
		r := rng.New(31)
		for _, p := range products {
			for _, s := range [][3]int{{1, 1, 1}, {7, 5, 3}, {129, 257, 9}, {513, 64, 47}, {2000, 100, 64}, {33, 300, 300}} {
				for _, zeros := range []float64{0, 0.5, 0.95, 1} {
					outS, aS, bS := p.shapes(s[0], s[1], s[2])
					a, b := randMatrix(r, aS[0], aS[1], zeros), randMatrix(r, bS[0], bS[1], 0)
					salt(r, a.Data)
					salt(r, b.Data)
					// Both start from garbage: out is overwritten, not added to.
					got, want := randMatrix(r, outS[0], outS[1], 0), randMatrix(r, outS[0], outS[1], 0)
					p.fn(got, a, b)
					p.ref(want, a, b)
					if i, ok := sameBits(got.Data, want.Data); !ok {
						t.Fatalf("%s %s %v zeros=%v: out[%d] = %v (%#x), reference %v (%#x)", body.name, p.name, s, zeros,
							i, got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
					}
				}
			}
		}
	}
}

// refBackward is Backward as it stood before the layer-0 input gradient was
// dropped: the scalar loops and reference products throughout, and dx
// computed and scattered at every layer, the first included.
func refBackward(m *Model, caches []*layerCache, dlogits *Matrix) {
	dh := dlogits
	for l := len(caches) - 1; l >= 0; l-- {
		c := caches[l]
		if m.Cfg.Arch == GAT {
			dh = refBackwardGAT(m, l, c.gat, dh)
			continue
		}
		in, _ := m.Cfg.dims(l)
		if c.out != nil {
			ReLUBackwardInPlace(dh, c.out)
		}
		bg := m.bias[l].G
		for i := 0; i < dh.R; i++ {
			for j, v := range dh.Row(i) {
				bg.Data[j] += v
			}
		}
		flops += int64(dh.R) * int64(dh.C)
		refAddInto := func(dst, src *Matrix) {
			for i := range dst.Data {
				dst.Data[i] += src.Data[i]
			}
			flops += int64(len(dst.Data))
		}
		dSelf := NewMatrix(dh.R, in)
		dAgg := NewMatrix(dh.R, in)
		gw := NewMatrix(in, dh.C)
		if m.Cfg.Arch == SAGE {
			refMatMulAT(gw, c.self, dh)
			refAddInto(m.wSelf[l].G, gw)
			refMatMulBT(dSelf, dh, m.wSelf[l].W)
		}
		refMatMulAT(gw, c.agg, dh)
		refAddInto(m.wNeigh[l].G, gw)
		refMatMulBT(dAgg, dh, m.wNeigh[l].W)
		dx := NewMatrix(c.x.R, in)
		block := c.block
		for i := range block.Dst {
			ar := dAgg.Row(i)
			count := block.SrcPtr[i+1] - block.SrcPtr[i]
			inv := 1 / float32(count)
			if m.Cfg.Arch == SAGE {
				dr := dx.Row(i)
				for j, v := range dSelf.Row(i) {
					dr[j] += v
				}
				if count == 0 {
					continue
				}
			} else {
				inv = 1 / float32(count+1)
				dr := dx.Row(i)
				for j := range dr {
					dr[j] += float32(ar[j] * inv)
				}
			}
			for e := block.SrcPtr[i]; e < block.SrcPtr[i+1]; e++ {
				xr := dx.Row(int(block.SrcLocal[e]))
				for j := range xr {
					xr[j] += float32(ar[j] * inv)
				}
			}
		}
		flops += 2 * int64(len(block.Src)) * int64(in)
		dh = dx
	}
}

func refBackwardGAT(m *Model, l int, c *gatCache, dh *Matrix) *Matrix {
	in, out := m.Cfg.dims(l)
	block := c.block
	if c.out != nil {
		ReLUBackwardInPlace(dh, c.out)
	}
	bg := m.bias[l].G
	for i := 0; i < dh.R; i++ {
		for j, v := range dh.Row(i) {
			bg.Data[j] += v
		}
	}
	flops += int64(dh.R) * int64(dh.C)
	dz := NewMatrix(c.z.R, out)
	daSrc, daDst := m.attSrc[l].G.Data, m.attDst[l].G.Data
	aSrc, aDst := m.attSrc[l].W.Data, m.attDst[l].W.Data
	for i := range block.Dst {
		lo, hi := c.slots(i)
		a, eRaw := c.alpha[lo:hi], c.eRaw[lo:hi]
		dhr := dh.Row(i)
		dAlpha := make([]float32, len(a))
		for k := range a {
			zr, dzr := c.z.Row(c.slotNode(i, k)), dz.Row(c.slotNode(i, k))
			var da float32
			for j := range dhr {
				dzr[j] += float32(a[k] * dhr[j])
				da += float32(dhr[j] * zr[j])
			}
			dAlpha[k] = da
		}
		var mix float32
		for k := range a {
			mix += float32(a[k] * dAlpha[k])
		}
		var dDstScore float32
		for k := range a {
			de := a[k] * (dAlpha[k] - mix)
			de = float32(de * leakyGrad(eRaw[k]))
			zr, dzr := c.z.Row(c.slotNode(i, k)), dz.Row(c.slotNode(i, k))
			for j := range zr {
				daSrc[j] += float32(de * zr[j])
				dzr[j] += float32(de * aSrc[j])
			}
			dDstScore += de
		}
		zd, dzd := c.z.Row(i), dz.Row(i)
		for j := range zd {
			daDst[j] += float32(dDstScore * zd[j])
			dzd[j] += float32(dDstScore * aDst[j])
		}
		flops += int64(len(a)) * int64(out) * 8
	}
	gw := NewMatrix(in, out)
	refMatMulAT(gw, c.x, dz)
	for i := range gw.Data {
		m.wNeigh[l].G.Data[i] += gw.Data[i]
	}
	flops += int64(len(gw.Data))
	dx := NewMatrix(c.x.R, in)
	refMatMulBT(dx, dz, m.wNeigh[l].W)
	return dx
}

// TestDeadInputGradient: skipping layer 0's input gradient moves no
// parameter gradient — each equals, bit for bit, what a backward pass that
// still computes and scatters it produces — and the FLOP count falls by
// exactly the work skipped: the input-gradient products over layer 0's
// shapes, plus the scatter into the input rows where there is one.
func TestDeadInputGradient(t *testing.T) {
	mb, feats, labels, inDim := goldenBatch(t)
	b0 := mb.Blocks[0]
	in, hidden := int64(inDim), int64(21)
	product := func(rows int) int64 { return 2 * int64(rows) * hidden * in } // dh @ Wᵀ
	scatter := 2 * int64(len(b0.Src)) * in
	for _, tc := range []struct {
		arch    Arch
		skipped int64
	}{
		{SAGE, 2*product(len(b0.Dst)) + scatter}, // self and neighbour products
		{GCN, product(len(b0.Dst)) + scatter},
		{GAT, product(len(b0.InputNodes))}, // dz covers every input row: no scatter
	} {
		cfg := Config{Arch: tc.arch, InDim: inDim, Hidden: int(hidden), Classes: 7, Layers: 3}
		grads := func(backward func(m *Model, caches []*layerCache, dlogits *Matrix)) ([]float32, int64) {
			m := NewModel(cfg, 17)
			m.ZeroGrads()
			start := FlopCount()
			logits, caches := m.Forward(mb, feats)
			dlogits := NewMatrix(logits.R, logits.C)
			SoftmaxCrossEntropy(logits, labels, dlogits)
			backward(m, caches, dlogits)
			g := make([]float32, m.ParamCount())
			m.GradVector(g)
			return g, FlopCount() - start
		}
		got, gotFlops := grads((*Model).Backward)
		want, wantFlops := grads(refBackward)
		if i, ok := sameBits(got, want); !ok {
			t.Errorf("%v: gradient %d = %v, with the input gradient computed %v", tc.arch, i, got[i], want[i])
		}
		if d := wantFlops - gotFlops; d != tc.skipped {
			t.Errorf("%v: %d flops counted, %d with the input gradient computed: %d fewer, want %d",
				tc.arch, gotFlops, wantFlops, d, tc.skipped)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestTrainStepSteadyStateAllocs: once the workspace has seen a batch, a
// train step on it draws every matrix from the pool.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	mb, feats, labels, inDim := goldenBatch(t)
	for _, arch := range []Arch{SAGE, GCN, GAT} {
		m := NewModel(Config{Arch: arch, InDim: inDim, Hidden: 21, Classes: 7, Layers: 3}, 17)
		step := func() {
			m.ZeroGrads()
			m.TrainStep(mb, feats, labels)
		}
		step()
		if n := testing.AllocsPerRun(10, step); n > 0 {
			t.Errorf("%v: steady-state TrainStep allocates %v objects, want 0", arch, n)
		}
	}
}
