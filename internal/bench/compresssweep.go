package bench

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/train"
)

// compressCodecs are the accuracy-vs-bytes frontier points, paper order:
// the lossless baseline first, then increasingly aggressive codecs.
func compressCodecs() []compress.Codec {
	return []compress.Codec{
		compress.FP32{},
		compress.FP16{},
		compress.NewInt8(2023), // seed matches baseOpts.Seed
		compress.NewTopK(0.1),
	}
}

// compressResult is one frontier point: real training under a codec.
type compressResult struct {
	Loss     float64 // mean training loss of the final epoch
	ValAcc   float64 // final validation accuracy
	GradWire int64   // cumulative gradient wire bytes, all epochs
	FeatWire int64   // cumulative feature wire bytes, all epochs
	Params   []float32
}

// compressEpochs is the fixed training length of every frontier point, so
// rows differ only in codec ("equal epochs").
const compressEpochs = 4

// compressRun trains DSP for real with the given codec on both the gradient
// allreduce and the feature gathers, and reports the frontier point. It is
// a pure function of (td, codec): two calls with the same codec must return
// bit-identical results (asserted by the determinism test).
func compressRun(td *train.Data, codec compress.Codec, cfg RunConfig) (compressResult, error) {
	opts := realOpts(td, cfg)
	opts.GradCodec = codec
	opts.FeatCodec = codec
	sys, err := core.New(opts)
	if err != nil {
		return compressResult{}, err
	}
	sched := train.NewSchedule(td, opts.BatchSize)
	var res compressResult
	for e := 0; e < compressEpochs; e++ {
		st, err := sys.RunEpoch(e)
		if err != nil {
			return compressResult{}, err
		}
		res.GradWire += st.GradWire
		res.FeatWire += st.FeatureWire
		if e == compressEpochs-1 && sched.Steps > 0 {
			res.Loss = st.Loss / float64(sched.Steps)
		}
	}
	res.ValAcc = train.Evaluate(td, sys.Model(), opts.Sample, 1000, 5)
	res.Params = make([]float32, sys.Model().ParamCount())
	sys.Model().ParamVector(res.Params)
	return res, nil
}

// CompressSweep produces the accuracy-vs-bytes frontier: DSP trained for
// real at equal epochs under each codec, applied to both the gradient
// allreduce and the feature-reply all-to-all. Columns: final-epoch mean
// loss and its delta vs fp32, final validation accuracy and its delta,
// cumulative gradient wire MB and the reduction factor vs fp32, and
// cumulative feature wire MB.
//
// Expected shape: fp16/int8 sit within a few percent of the fp32 loss at a
// 2x/3.9x gradient wire cut; topk(0.1) buys the biggest cut at visible
// quality cost. Feature compression changes bytes only — features are
// assembled host-side in real-compute mode, so FeatCodec never perturbs the
// math (see DESIGN.md).
func CompressSweep(cfg RunConfig) (*Table, error) {
	codecs := compressCodecs()
	rows := make([]string, len(codecs))
	for i, c := range codecs {
		rows[i] = c.Name()
	}
	cols := []string{"loss", "dloss%", "val-acc", "dacc", "grad MB", "gradx", "feat MB"}
	t := NewTable("Compression: accuracy-vs-bytes frontier (DSP, 4 GPUs, equal epochs)", "mixed", rows, cols)

	// Small enough for fp32 training on the host, 4 GPUs so every collective
	// actually moves wire bytes.
	td := realStandIn("compress", 16000, 1500, 4, cfg.Shrink)
	var base compressResult
	for i, codec := range codecs {
		res, err := compressRun(td, codec, cfg)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = res
		}
		name := codec.Name()
		t.Set(name, "loss", res.Loss)
		if base.Loss != 0 {
			t.Set(name, "dloss%", 100*(res.Loss-base.Loss)/math.Abs(base.Loss))
		}
		t.Set(name, "val-acc", res.ValAcc)
		t.Set(name, "dacc", res.ValAcc-base.ValAcc)
		t.Set(name, "grad MB", float64(res.GradWire)/1e6)
		if res.GradWire > 0 {
			t.Set(name, "gradx", float64(base.GradWire)/float64(res.GradWire))
		}
		t.Set(name, "feat MB", float64(res.FeatWire)/1e6)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every row trains %d epochs on the same seeds; only the codec differs", compressEpochs),
		"int8 must cut gradient wire >= 3.5x with |dloss%| within the documented 5% bound",
		"feature codecs change bytes/time only: real-compute features are assembled host-side (DESIGN.md)",
	)
	return t, nil
}
