// Package cliopts centralises the CLI flag wiring shared by the dsptrain
// and dspserve binaries — fault injection, adaptive-cache selection, and
// communication compression — so the two frontends register identical flags
// and resolve them through the same validation paths instead of drifting.
package cliopts

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

// Common holds the flag values shared by every binary that drives the
// simulated fleet. Construct it with Register; after flag.Parse read the
// exported fields directly and the parsed or clamped values through the
// accessor methods.
type Common struct {
	// CacheBudget is -cache-budget, Report -report and Strategy -strategy
	// (parsed and checked by the system constructor).
	CacheBudget int64
	Report      string
	Strategy    string

	faults        string
	cachePolicy   string
	compressFeat  string
	compressGrad  string
	parallel      int
	traceMaxEvent int
}

// Register installs the shared flags on fs and returns the bound Common.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.faults, "faults", "",
		"fault schedule, e.g. 'crash@gpu2:t=0.2,stall@gpu0:t=0.1+50ms'")
	fs.StringVar(&c.cachePolicy, "cache", "static",
		"adaptive feature-cache policy: static, lfu, hybrid")
	fs.Int64Var(&c.CacheBudget, "cache-budget", 0,
		"per-GPU feature cache budget in bytes (0 = fill free memory)")
	fs.StringVar(&c.compressFeat, "compress-feat", "",
		"feature-transfer codec: none, fp32, fp16, int8, topk[:ratio] (NVLink replies and NIC sends)")
	fs.StringVar(&c.Report, "report", "",
		"write the machine-readable run report ("+prof.Schema+" JSON) to this file")
	fs.StringVar(&c.Strategy, "strategy", "dsp",
		"execution strategy: dsp (paper layout: partitioned features, hot/cold gather) or p3 (dimension-partitioned features, push-pull layer 1)")
	fs.IntVar(&c.parallel, "parallel", 1,
		"OS threads for offloaded simulator data work (sampling draws, codec encodes, reductions); results are bitwise identical at any value")
	fs.IntVar(&c.traceMaxEvent, "trace-max-events", 0,
		"cap the in-memory trace buffer at this many events, dropping the oldest (0 = unbounded)")
	return c
}

// TraceMaxEvents returns the -trace-max-events ring cap (0 = unbounded).
func (c *Common) TraceMaxEvents() int { return max(c.traceMaxEvent, 0) }

// Parallel returns the -parallel thread budget (minimum 1).
func (c *Common) Parallel() int { return max(c.parallel, 1) }

// Graph holds the graph-storage flag values shared by dsptrain, dspserve and
// dspdata: compressed CSR topology (-graph-compress) and the out-of-core
// host/disk tier (-ooc, -ooc-budget, -ooc-no-prefetch).
type Graph struct {
	Compress      bool
	OOC           bool
	OOCBudget     int64
	OOCNoPrefetch bool
}

// RegisterGraph installs the graph-storage flags on fs.
func RegisterGraph(fs *flag.FlagSet) *Graph {
	g := &Graph{}
	fs.BoolVar(&g.Compress, "graph-compress", false,
		"store the partitioned topology varint-compressed (delta-sorted gap encoding; ~4x smaller, decode kernel per sampled row)")
	fs.BoolVar(&g.OOC, "ooc", false,
		"enable the out-of-core tier: spill topology and feature blocks to a simulated NVMe device below host memory")
	fs.Int64Var(&g.OOCBudget, "ooc-budget", 0,
		"host block-cache budget in bytes for -ooc (0 = half the block bytes)")
	fs.BoolVar(&g.OOCNoPrefetch, "ooc-no-prefetch", false,
		"disable the proximity-aware block prefetcher (with -ooc every host read stalls on demand fetches)")
	return g
}

// Describe returns the operator-facing one-liner for the selected graph
// storage mode, or "" when every flag is off.
func (g *Graph) Describe() string {
	var parts []string
	if g.Compress {
		parts = append(parts, "compressed topology (delta-sorted varint)")
	}
	if g.OOC {
		pf := "proximity prefetch on"
		if g.OOCNoPrefetch {
			pf = "prefetch off"
		}
		parts = append(parts, "out-of-core tier ("+pf+")")
	}
	return strings.Join(parts, ", ")
}

// RegisterGrad additionally installs the gradient-compression flag (training
// binaries only; serving has no gradients).
func (c *Common) RegisterGrad(fs *flag.FlagSet) {
	fs.StringVar(&c.compressGrad, "compress-grad", "",
		"gradient-allreduce codec: none, fp32, fp16, int8, topk[:ratio] (lossy codecs change the training for real)")
}

// FaultSchedule parses the -faults spec against the fleet size.
func (c *Common) FaultSchedule(gpus int) ([]fault.Fault, error) {
	return fault.ParseSpec(c.faults, gpus)
}

// Policy resolves the -cache flag.
func (c *Common) Policy() (cache.Policy, error) {
	return cache.ParsePolicy(c.cachePolicy)
}

// FeatCodec resolves the -compress-feat flag; the seed drives stochastic
// codecs so runs stay reproducible.
func (c *Common) FeatCodec(seed uint64) (compress.Codec, error) {
	return codec("-compress-feat", c.compressFeat, seed)
}

// GradCodec resolves the -compress-grad flag (nil without RegisterGrad).
func (c *Common) GradCodec(seed uint64) (compress.Codec, error) {
	return codec("-compress-grad", c.compressGrad, seed)
}

// codec parses a -compress-* spec, naming the flag in its error.
func codec(name, spec string, seed uint64) (compress.Codec, error) {
	c, err := compress.Parse(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return c, nil
}

// Fleet holds the replicated-serving flag values (dspserve only): fleet
// count, routing policy, tenant quotas, latency SLO and autoscale bounds.
type Fleet struct {
	fleets    int
	router    string
	tenants   string
	slo       float64
	autoscale string
}

// maxFleets caps -fleets and the -autoscale maximum. Every fleet up to the
// maximum is built before the run, so the cap bounds set-up memory; 64 fleets
// of one DGX-1 each is 512 GPUs, past any experiment (the router sweep uses 3).
const maxFleets = 64

// RegisterFleet installs the replicated-serving flags on fs.
func RegisterFleet(fs *flag.FlagSet) *Fleet {
	f := &Fleet{}
	fs.IntVar(&f.fleets, "fleets", 1,
		fmt.Sprintf("replicated serving fleets behind the router, 1 to %d (1 = no router)", maxFleets))
	fs.StringVar(&f.router, "router", "round-robin",
		"routing policy: round-robin, least-loaded, latency-aware, shard-affinity")
	fs.StringVar(&f.tenants, "tenants", "",
		"tenant spec 'name:weight[:rate[:burst]],...', e.g. 'free:4:500,pro:1'")
	fs.Float64Var(&f.slo, "slo", 0,
		"end-to-end latency SLO in virtual seconds (enables goodput accounting; 0 = none)")
	fs.StringVar(&f.autoscale, "autoscale", "",
		fmt.Sprintf("autoscale active fleets between 'min:max' on the SLO bands, max at most %d (empty = static fleet set)", maxFleets))
	return f
}

// N returns the -fleets count, an error naming the flag outside 1..maxFleets.
func (f *Fleet) N() (int, error) {
	n := f.fleets
	if n < 1 || n > maxFleets {
		return 0, fmt.Errorf("cliopts: -fleets must be between 1 and %d, got %d", maxFleets, n)
	}
	return n, nil
}

// Policy resolves the -router flag.
func (f *Fleet) Policy() (fleet.Policy, error) {
	return fleet.ParsePolicy(f.router)
}

// Tenants resolves the -tenants spec.
func (f *Fleet) Tenants() ([]serve.TenantSpec, error) {
	specs, err := serve.ParseTenants(f.tenants)
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	return specs, nil
}

// SLO returns the -slo objective.
func (f *Fleet) SLO() sim.Time { return sim.Time(f.slo) }

// Autoscale resolves the -autoscale 'min:max' bounds (zero value = disabled).
func (f *Fleet) Autoscale() (fleet.Autoscale, error) {
	spec := strings.TrimSpace(f.autoscale)
	if spec == "" {
		return fleet.Autoscale{}, nil
	}
	lo, hi, ok := strings.Cut(spec, ":")
	var as fleet.Autoscale
	var err error
	if as.Min, err = strconv.Atoi(lo); err == nil && ok {
		as.Max, err = strconv.Atoi(hi)
	}
	if err != nil || !ok || as.Min < 1 || as.Max < as.Min || as.Max > maxFleets {
		return fleet.Autoscale{}, fmt.Errorf("cliopts: bad -autoscale %q (want 'min:max' with 1 <= min <= max <= %d)", spec, maxFleets)
	}
	return as, nil
}

// FleetMode reports whether the run needs the router: more than one fleet or
// autoscaling headroom.
func (f *Fleet) FleetMode() bool {
	as, err := f.Autoscale()
	return f.fleets > 1 || (err == nil && as.Max > 1)
}

// FleetFaultSchedule parses the -faults spec in the fleet-scoped grammar
// (crash@fleetF, stall@fleetF/gpuN, ...) against the built fleet count and
// per-fleet GPU count.
func (c *Common) FleetFaultSchedule(nFleet, gpusPer int) ([]fault.FleetFault, error) {
	return fault.ParseFleetSpec(c.faults, nFleet, gpusPer)
}

// Telemetry holds the -telemetry flag group shared by dsptrain and
// dspserve: the virtual-time scraper, per-request span accounting and the
// SLO burn-rate alert engine (internal/telemetry).
type Telemetry struct {
	enabled  bool
	out      string
	interval float64
	ring     int
	target   float64
}

// RegisterTelemetry installs the -telemetry flag group on fs.
func RegisterTelemetry(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{}
	fs.BoolVar(&t.enabled, "telemetry", false,
		"enable the live telemetry hub: virtual-time metric scraping, per-request stage spans and SLO burn-rate alerting")
	fs.StringVar(&t.out, "telemetry-out", "",
		"write the "+telemetry.DocSchema+" JSON document to this file (implies -telemetry; render with dspmon)")
	fs.Float64Var(&t.interval, "telemetry-interval", 0,
		"scrape cadence in virtual seconds (0 = default 2ms)")
	fs.IntVar(&t.ring, "telemetry-ring", 0,
		"per-series ring capacity; older samples are dropped (0 = default 2048)")
	fs.Float64Var(&t.target, "slo-target", 0,
		"availability target whose error budget the burn-rate alerts consume, e.g. 0.99 (0 = default 0.99)")
	return t
}

// Enabled reports whether any telemetry flag turned the hub on.
func (t *Telemetry) Enabled() bool { return t.enabled || t.out != "" }

// Hub builds the configured hub, or nil when telemetry is off. slo is the
// run's latency objective (the -slo flag for serving; seconds). A non-finite
// -telemetry-interval or -slo-target is an error naming the flag, telemetry
// on or off, so a bad command line stops before the run.
func (t *Telemetry) Hub(slo sim.Time) (*telemetry.Hub, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"-telemetry-interval", t.interval}, {"-slo-target", t.target}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("cliopts: %s must be finite, got %v", f.name, f.v)
		}
	}
	if !t.Enabled() {
		return nil, nil
	}
	return telemetry.New(telemetry.Config{
		Interval: sim.Time(t.interval),
		RingCap:  t.ring,
		SLO:      slo,
		Target:   t.target,
	}), nil
}

// Finish closes the hub at virtual time end, validates the document,
// writes it when -telemetry-out was given, and returns it (nil when
// telemetry is off).
func (t *Telemetry) Finish(h *telemetry.Hub, end sim.Time) (*telemetry.Doc, error) {
	if !h.Enabled() {
		return nil, nil
	}
	doc := h.Finish(end)
	if err := doc.Validate(); err != nil {
		return nil, fmt.Errorf("cliopts: telemetry document invalid: %w", err)
	}
	if t.out != "" {
		if err := doc.WriteFile(t.out); err != nil {
			return nil, err
		}
		fmt.Printf("wrote telemetry to %s\n", t.out)
	}
	return doc, nil
}

// LoadData resolves the dataset flags both frontends share: the prepared
// .dspd file at path (its patch count overrides gpus) or, with no path, the
// named standard dataset from train.StandardData. It returns the data, the GPU
// count to run with and the shrink divisor to record in the run report (0 for
// a loaded file: unknown). Every error is a bad command line — an unreadable
// file, an unknown dataset, a GPU count outside 1-8 — so the frontends exit 2.
func LoadData(path, name string, gpus, shrink int) (*train.Data, int, int, error) {
	if path != "" {
		td, err := graphio.LoadFile(path)
		if err != nil {
			return nil, 0, 0, err
		}
		fmt.Printf("loaded %s: %d nodes, %d patches\n", path, td.G.NumNodes(), td.NumGPUs())
		return td, td.NumGPUs(), 0, nil
	}
	td, err := train.StandardData(name, gpus, shrink, 13, true, func(std gen.Standard) *gen.Dataset {
		fmt.Printf("generating %s (%d nodes, scale factor %.0fx)...\n",
			std.Config.Name, std.Config.Nodes, std.ScaleFactor)
		d := gen.Generate(std.Config)
		fmt.Printf("partitioning into %d patches...\n", gpus)
		return d
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return td, gpus, shrink, nil
}

// Finish is the run epilogue every frontend path shares: close the
// telemetry hub at virtual time end (validate, write -telemetry-out), attach
// its section and the tracer's profile to r (prof.RunReport.Attach),
// validate and write r when -report was given, then write the Chrome trace
// to tracePath when tracing to a file. r carries the builder's sections and
// the caller's identity; hub and tracer may be nil.
func (c *Common) Finish(t *Telemetry, hub *telemetry.Hub, end sim.Time, tracer *trace.Tracer, tracePath string,
	r *prof.RunReport) error {
	doc, err := t.Finish(hub, end)
	if err != nil {
		return err
	}
	var sec *prof.TelemetrySection
	if doc != nil {
		sec = doc.Section()
	}
	r.Attach(sec, tracer)
	if c.Report != "" {
		if err := r.Validate(); err != nil {
			return err
		}
		if err := r.WriteFile(c.Report); err != nil {
			return err
		}
		fmt.Printf("wrote run report to %s\n", c.Report)
	}
	if tracer == nil || tracePath == "" {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
