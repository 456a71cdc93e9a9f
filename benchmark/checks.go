package main

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/train"
)

// check is one correctness check's outcome; a failed check makes the run
// incorrect and the command exit non-zero.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Msg  string `json:"msg,omitempty"`
}

type checker struct{ list []check }

func (c *checker) add(name string, ok bool, msg string) {
	if ok {
		msg = ""
	}
	c.list = append(c.list, check{Name: name, OK: ok, Msg: msg})
}

func (c *checker) equal(name string, a, b any) {
	c.add(name, reflect.DeepEqual(a, b), fmt.Sprintf("%+v != %+v", a, b))
}

func allOK(list []check) bool {
	for _, c := range list {
		if !c.OK {
			return false
		}
	}
	return true
}

func (t *trainInstance) check(ck *checker, measured []facts) {
	// comm prices one codec-encoded gradient vector per rank per step; the
	// fabric then carries it as 2(n-1) ring chunks of 1/n each, counted once
	// per hop. So comm's counter has a closed form and the fabric's bytes
	// have the ring as a floor.
	n := int64(t.b.spec.gpus)
	calls := int64(len(t.epochTimes)) * int64(t.sys.Steps()) * n
	vector := compress.WireBytes(t.opts.GradCodec, nn.NewModel(t.opts.Model, t.opts.Seed).ParamCount())
	got := t.sys.Compression()[hw.TrafficGradient].Wire
	ck.add("comm's gradient wire counter equals steps x ranks x the codec's vector size",
		got == calls*vector, fmt.Sprintf("comm %d != %d x %d", got, calls, vector))
	ring := calls * 2 * (n - 1) * (vector / n)
	ck.add("EpochStats gradient wire bytes cover comm's ring traffic",
		t.gradWire >= ring, fmt.Sprintf("fabric %d < ring %d", t.gradWire, ring))
	if !t.opts.RealCompute {
		return
	}
	first, last := t.losses[1], t.losses[len(t.losses)-1]
	ck.add("train-real loss is finite and falls over the measured epochs",
		!math.IsNaN(last) && !math.IsInf(last, 0) && last < first,
		fmt.Sprintf("first %.4g last %.4g", first, last))
	floor := t.b.scale.valAccFloor
	acc := t.valAcc()
	ck.add(fmt.Sprintf("train-real validation accuracy >= %.2f", floor), acc >= floor, fmt.Sprintf("got %.4f", acc))
}

// valAcc evaluates rank 0's replica with the reference sampler.
func (t *trainInstance) valAcc() float64 {
	return train.Evaluate(t.b.data, t.sys.Model(), t.opts.Sample, 1000, t.b.seed)
}

func (s *serveInstance) check(ck *checker, measured []facts) {
	for _, f := range measured[1:] {
		if f != measured[0] {
			ck.add("every ladder repetition gives identical virtual results", false, fmt.Sprintf("%+v != %+v", f, measured[0]))
			break
		}
	}
	for _, k := range []int{ptLight, ptNominal} {
		r := s.reports[k]
		ck.add("zero shed and lost at "+ladder[k].name, r.Shed == 0 && r.Lost == 0, fmt.Sprintf("shed %d lost %d", r.Shed, r.Lost))
	}
	p99 := s.reports[ptNominal].Latency.P99()
	ck.add("nominal p99 within the 5 ms limit", p99 <= nominalP99Limit, fmt.Sprintf("p99 %.3f ms", p99*1e3))
	ov := s.reports[ptOverload]
	ck.add("overload sheds", ov.Shed > 0, "admission control shed nothing at the overload point")
}

// checkTopology verifies the compressed topology decodes back to the flat
// CSR in its canonical (sorted) form.
func checkTopology(ck *checker, g *graph.CSR, c *graph.CompressedCSR) {
	want, got := g.Sorted(), c.Decompress()
	ok := want.NumNodes() == got.NumNodes() && want.NumEdges() == got.NumEdges()
	for v := 0; ok && v < want.NumNodes(); v++ {
		ok = reflect.DeepEqual(want.Neighbors(graph.NodeID(v)), got.Neighbors(graph.NodeID(v)))
	}
	ck.add("CompressedCSR.Decompress equals the flat CSR", ok, "decoded adjacency differs")
}

// checkCodecs round-trips a random vector through every codec and holds the
// error to the bound each codec documents.
func checkCodecs(ck *checker, seed uint64) {
	r := rng.New(seed)
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(r.NormFloat64())
	}
	// int8: absolute error below (max-min)/255 of the element's 256-chunk.
	back := compress.Roundtrip(compress.NewInt8(seed), vals)
	ok := true
	for lo := 0; lo < len(vals); lo += 256 {
		mn, mx := vals[lo], vals[lo]
		for _, v := range vals[lo : lo+256] {
			mn, mx = min(mn, v), max(mx, v)
		}
		scale := float64(mx-mn) / 255
		for i := lo; i < lo+256; i++ {
			if math.Abs(float64(back[i]-vals[i])) > scale*(1+1e-5) {
				ok = false
			}
		}
	}
	ck.add("int8 round-trip error within one quantisation step", ok, "error exceeds (max-min)/255")
	// fp16: relative error at most 2^-11 in the normal range.
	back = compress.Roundtrip(compress.FP16{}, vals)
	ok = true
	for i, v := range vals {
		if math.Abs(float64(v)) > 6.2e-5 && math.Abs(float64(back[i]-v)) > math.Abs(float64(v))/2048*(1+1e-6) {
			ok = false
		}
	}
	ck.add("fp16 round-trip relative error within 2^-11", ok, "error exceeds 2^-11")
	// topk: kept entries are exact, the rest decode to zero.
	back = compress.Roundtrip(compress.NewTopK(0.1), vals)
	kept := 0
	ok = true
	for i, v := range back {
		if v != 0 {
			kept++
			ok = ok && v == vals[i]
		}
	}
	ck.add("topk keeps ceil(0.1 n) exact entries", ok && kept == (len(vals)+9)/10, fmt.Sprintf("kept %d", kept))
	ck.add("fp32 round-trip is exact", reflect.DeepEqual(compress.Roundtrip(compress.FP32{}, vals), vals), "values changed")
}
