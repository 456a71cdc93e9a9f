package serve_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/train"
)

// pinnedRun is one serving run's output as the pinned hash reads it.
type pinnedRun struct {
	reqs   []*serve.Request
	end    sim.Time
	report func() *prof.RunReport
}

// TestServePinned holds six serving runs to an FNV-64a over every completed
// request's ID, GPU, Round, Batch, Pred and the bits of its Arrival and Done,
// the makespan, the run-report JSON and the telemetry-document JSON. The
// constants were recorded while serve.Config still carried its own hardware
// spec, model, queue and overhead fields, so they hold the constants that
// replaced those fields to the values every run used to get. The fleet row
// was re-pinned once when its report gained the telemetry section (the run
// report then went through the same epilogue as a stand-alone one); without
// that section its bytes are the old row's. Every row was re-pinned when an
// inference came to be priced by nn.NominalForwardFlops, the work Forward
// executes. They are amd64
// values (real-compute predictions run nn's Go loops, which arm64 fuses), so
// the test only runs there.
func TestServePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned constants are amd64 values (arm64 fuses a*b+c)")
	}
	prep := func(nGPU int) *train.Data {
		d := gen.Generate(gen.Config{
			Name: "serve-pin", Nodes: 3000, AvgDegree: 12, FeatDim: 16, NumClasses: 6, Seed: 11,
		})
		return train.Prepare(d, nGPU, 1, true)
	}
	d4, d2 := prep(4), prep(2)
	base := func(d *train.Data) serve.Config {
		return serve.Config{
			Data: d, Sample: sample.Config{Fanout: []int{6, 4}}, Seed: 42,
			Duration: 0.05, Rate: 4000, Skew: 0.8, UseCCC: true,
		}
	}
	alone := func(cfg serve.Config) (pinnedRun, error) {
		rep, err := serve.Serve(cfg)
		if err != nil {
			return pinnedRun{}, err
		}
		return pinnedRun{rep.Requests, rep.Makespan, rep.RunReport}, nil
	}
	for _, tc := range []struct {
		name string
		want uint64
		cfg  serve.Config
		run  func(serve.Config) (pinnedRun, error)
	}{
		{"dynamic", 0x988dbae922b20958, base(d4), alone},
		{"real", 0x77d46ab71259528b, func() serve.Config {
			c := base(d4)
			c.RealCompute = true
			return c
		}(), alone},
		{"p3", 0x614177a21e77329a, func() serve.Config {
			c := base(d4)
			c.Strategy = "p3"
			return c
		}(), alone},
		{"tiered", 0x3f5a9ae3ca7ed8cf, func() serve.Config {
			c := base(d2)
			c.CompressTopology, c.OOC = true, true
			c.FeatCodec = compress.NewInt8(c.Seed)
			c.DynamicCache, c.RebalanceEvery, c.DriftEvery = cache.LFUDecay, 0.01, 0.02
			return c
		}(), alone},
		{"tenants", 0xcbf475fb9f6158b8, func() serve.Config {
			c := base(d4)
			c.Rate = 6000
			c.Tenants = []serve.TenantSpec{{Name: "free", Weight: 4, Rate: 500}, {Name: "pro", Weight: 1}}
			c.SLO = 5e-3
			c.Telemetry = telemetry.New(telemetry.Config{SLO: c.SLO})
			return c
		}(), alone},
		{"fleet", 0xdadd20f654d225c, func() serve.Config {
			c := base(d2)
			c.Rate, c.SLO = 8000, 5e-3
			c.Telemetry = telemetry.New(telemetry.Config{SLO: c.SLO})
			return c
		}(), func(cfg serve.Config) (pinnedRun, error) {
			r, err := fleet.NewRouter(fleet.Config{Serve: cfg, Fleets: 2, Policy: fleet.LeastLoaded})
			if err != nil {
				return pinnedRun{}, err
			}
			rep, err := r.Run()
			if err != nil {
				return pinnedRun{}, err
			}
			var reqs []*serve.Request
			for _, fr := range rep.PerFleet {
				reqs = append(reqs, fr.Requests...)
			}
			return pinnedRun{reqs, rep.Makespan, rep.RunReport}, nil
		}},
	} {
		out, err := tc.run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, r := range out.reqs {
			for _, v := range []uint64{uint64(r.ID), uint64(r.GPU), uint64(r.Round), uint64(r.Batch), uint64(r.Pred),
				math.Float64bits(float64(r.Arrival)), math.Float64bits(float64(r.Done))} {
				put(v)
			}
		}
		put(math.Float64bits(float64(out.end)))
		var docJSON []byte
		var sec *prof.TelemetrySection
		if hub := tc.cfg.Telemetry; hub.Enabled() {
			doc := hub.Finish(out.end)
			if err := doc.Validate(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if docJSON, err = doc.EncodeJSON(); err != nil {
				t.Fatal(err)
			}
			sec = doc.Section()
		}
		rr := out.report()
		rr.Dataset, rr.GPUs, rr.Seed = tc.cfg.Data.Name, tc.cfg.Data.NumGPUs(), tc.cfg.Seed
		rr.Attach(sec, nil)
		if err := rr.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		js, err := rr.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(js)
		h.Write(docJSON)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: hash %#x, pinned %#x", tc.name, got, tc.want)
		}
	}
}
