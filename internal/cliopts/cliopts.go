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
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

// Common holds the flag values shared by every binary that drives the
// simulated fleet. Construct it with Register; read the resolved values
// through the accessor methods after flag.Parse.
type Common struct {
	faults        *string
	cachePolicy   *string
	cacheBudget   *int64
	compressFeat  *string
	compressGrad  *string
	report        *string
	strategy      *string
	parallel      *int
	traceMaxEvent *int
}

// Register installs the shared flags on fs and returns the bound Common.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	c.faults = fs.String("faults", "",
		"fault schedule, e.g. 'crash@gpu2:t=0.2,stall@gpu0:t=0.1+50ms'")
	c.cachePolicy = fs.String("cache", "static",
		"adaptive feature-cache policy: static, lfu, hybrid")
	c.cacheBudget = fs.Int64("cache-budget", 0,
		"per-GPU feature cache budget in bytes (0 = fill free memory)")
	c.compressFeat = fs.String("compress-feat", "",
		"feature-transfer codec: none, fp32, fp16, int8, topk[:ratio] (NVLink replies and NIC sends)")
	c.report = fs.String("report", "",
		"write the machine-readable run report ("+prof.Schema+" JSON) to this file")
	c.strategy = fs.String("strategy", "dsp",
		"execution strategy: dsp (paper layout: partitioned features, hot/cold gather) or p3 (dimension-partitioned features, push-pull layer 1)")
	c.parallel = fs.Int("parallel", 1,
		"OS threads for offloaded simulator data work (sampling draws, codec encodes, reductions); results are bitwise identical at any value")
	c.traceMaxEvent = fs.Int("trace-max-events", 0,
		"cap the in-memory trace buffer at this many events, dropping the oldest (0 = unbounded)")
	return c
}

// TraceMaxEvents returns the -trace-max-events ring cap (0 = unbounded).
func (c *Common) TraceMaxEvents() int {
	if *c.traceMaxEvent < 0 {
		return 0
	}
	return *c.traceMaxEvent
}

// Parallel returns the -parallel thread budget (minimum 1).
func (c *Common) Parallel() int {
	if *c.parallel < 1 {
		return 1
	}
	return *c.parallel
}

// Graph holds the graph-storage flag values shared by dsptrain, dspserve and
// dspdata: compressed CSR topology and the out-of-core host/disk tier.
type Graph struct {
	compress      *bool
	ooc           *bool
	oocBudget     *int64
	oocNoPrefetch *bool
}

// RegisterGraph installs the graph-storage flags on fs.
func RegisterGraph(fs *flag.FlagSet) *Graph {
	g := &Graph{}
	g.compress = fs.Bool("graph-compress", false,
		"store the partitioned topology varint-compressed (delta-sorted gap encoding; ~4x smaller, decode kernel per sampled row)")
	g.ooc = fs.Bool("ooc", false,
		"enable the out-of-core tier: spill topology and feature blocks to a simulated NVMe device below host memory")
	g.oocBudget = fs.Int64("ooc-budget", 0,
		"host block-cache budget in bytes for -ooc (0 = half the block bytes)")
	g.oocNoPrefetch = fs.Bool("ooc-no-prefetch", false,
		"disable the proximity-aware block prefetcher (with -ooc every host read stalls on demand fetches)")
	return g
}

// Compress returns the -graph-compress value.
func (g *Graph) Compress() bool { return *g.compress }

// OOC returns the -ooc value.
func (g *Graph) OOC() bool { return *g.ooc }

// OOCBudget returns the -ooc-budget value.
func (g *Graph) OOCBudget() int64 { return *g.oocBudget }

// OOCNoPrefetch returns the -ooc-no-prefetch value.
func (g *Graph) OOCNoPrefetch() bool { return *g.oocNoPrefetch }

// Describe returns the operator-facing one-liner for the selected graph
// storage mode, or "" when every flag is off.
func (g *Graph) Describe() string {
	var parts []string
	if g.Compress() {
		parts = append(parts, "compressed topology (delta-sorted varint)")
	}
	if g.OOC() {
		pf := "proximity prefetch on"
		if g.OOCNoPrefetch() {
			pf = "prefetch off"
		}
		parts = append(parts, "out-of-core tier ("+pf+")")
	}
	return strings.Join(parts, ", ")
}

// RegisterGrad additionally installs the gradient-compression flag (training
// binaries only; serving has no gradients).
func (c *Common) RegisterGrad(fs *flag.FlagSet) {
	c.compressGrad = fs.String("compress-grad", "",
		"gradient-allreduce codec: none, fp32, fp16, int8, topk[:ratio] (lossy codecs change the training for real)")
}

// FaultSchedule parses the -faults spec against the fleet size.
func (c *Common) FaultSchedule(gpus int) ([]fault.Fault, error) {
	return fault.ParseSpec(*c.faults, gpus)
}

// Policy resolves the -cache flag.
func (c *Common) Policy() (cache.Policy, error) {
	return cache.ParsePolicy(*c.cachePolicy)
}

// CacheBudget returns the -cache-budget value.
func (c *Common) CacheBudget() int64 { return *c.cacheBudget }

// StrategyKind resolves the -strategy flag and rejects the cache flags the
// strategy cannot honour (strategy.Kind.Compatible holds the rules; an
// unparsable -cache value is reported by Policy).
func (c *Common) StrategyKind() (strategy.Kind, error) {
	kind, err := strategy.Parse(*c.strategy)
	if err != nil {
		return kind, err
	}
	pol, _ := c.Policy()
	if err := kind.Compatible(train.Options{DynamicCache: pol, FeatureCacheBudget: c.CacheBudget()}); err != nil {
		return kind, fmt.Errorf("cliopts: %w", err)
	}
	return kind, nil
}

// FeatCodec resolves the -compress-feat flag; the seed drives stochastic
// codecs so runs stay reproducible.
func (c *Common) FeatCodec(seed uint64) (compress.Codec, error) {
	return codec("-compress-feat", *c.compressFeat, seed)
}

// GradCodec resolves the -compress-grad flag (RegisterGrad must have run).
func (c *Common) GradCodec(seed uint64) (compress.Codec, error) {
	if c.compressGrad == nil {
		return nil, nil
	}
	return codec("-compress-grad", *c.compressGrad, seed)
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
	fleets    *int
	router    *string
	tenants   *string
	slo       *float64
	autoscale *string
}

// maxFleets caps -fleets and the -autoscale maximum. Every fleet up to the
// maximum is built before the run, so the cap bounds set-up memory; 64 fleets
// of one DGX-1 each is 512 GPUs, past any experiment (the router sweep uses 3).
const maxFleets = 64

// RegisterFleet installs the replicated-serving flags on fs.
func RegisterFleet(fs *flag.FlagSet) *Fleet {
	f := &Fleet{}
	f.fleets = fs.Int("fleets", 1,
		fmt.Sprintf("replicated serving fleets behind the router, 1 to %d (1 = no router)", maxFleets))
	f.router = fs.String("router", "round-robin",
		"routing policy: round-robin, least-loaded, latency-aware, shard-affinity")
	f.tenants = fs.String("tenants", "",
		"tenant spec 'name:weight[:rate[:burst]],...', e.g. 'free:4:500,pro:1'")
	f.slo = fs.Float64("slo", 0,
		"end-to-end latency SLO in virtual seconds (enables goodput accounting; 0 = none)")
	f.autoscale = fs.String("autoscale", "",
		fmt.Sprintf("autoscale active fleets between 'min:max' on the SLO bands, max at most %d (empty = static fleet set)", maxFleets))
	return f
}

// N returns the -fleets count, an error naming the flag outside 1..maxFleets.
func (f *Fleet) N() (int, error) {
	n := *f.fleets
	if n < 1 || n > maxFleets {
		return 0, fmt.Errorf("cliopts: -fleets must be between 1 and %d, got %d", maxFleets, n)
	}
	return n, nil
}

// Policy resolves the -router flag.
func (f *Fleet) Policy() (fleet.Policy, error) {
	return fleet.ParsePolicy(*f.router)
}

// Tenants resolves the -tenants spec.
func (f *Fleet) Tenants() ([]serve.TenantSpec, error) {
	specs, err := serve.ParseTenants(*f.tenants)
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	return specs, nil
}

// SLO returns the -slo objective.
func (f *Fleet) SLO() sim.Time { return sim.Time(*f.slo) }

// Autoscale resolves the -autoscale 'min:max' bounds (zero value = disabled).
func (f *Fleet) Autoscale() (fleet.Autoscale, error) {
	spec := strings.TrimSpace(*f.autoscale)
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
	return *f.fleets > 1 || (err == nil && as.Max > 1)
}

// FleetFaultSchedule parses the -faults spec in the fleet-scoped grammar
// (crash@fleetF, stall@fleetF/gpuN, ...) against the built fleet count and
// per-fleet GPU count.
func (c *Common) FleetFaultSchedule(nFleet, gpusPer int) ([]fault.FleetFault, error) {
	return fault.ParseFleetSpec(*c.faults, nFleet, gpusPer)
}

// Telemetry holds the -telemetry flag group shared by dsptrain and
// dspserve: the virtual-time scraper, per-request span accounting and the
// SLO burn-rate alert engine (internal/telemetry).
type Telemetry struct {
	enabled  *bool
	out      *string
	interval *float64
	ring     *int
	target   *float64
}

// RegisterTelemetry installs the -telemetry flag group on fs.
func RegisterTelemetry(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{}
	t.enabled = fs.Bool("telemetry", false,
		"enable the live telemetry hub: virtual-time metric scraping, per-request stage spans and SLO burn-rate alerting")
	t.out = fs.String("telemetry-out", "",
		"write the "+telemetry.DocSchema+" JSON document to this file (implies -telemetry; render with dspmon)")
	t.interval = fs.Float64("telemetry-interval", 0,
		"scrape cadence in virtual seconds (0 = default 2ms)")
	t.ring = fs.Int("telemetry-ring", 0,
		"per-series ring capacity; older samples are dropped (0 = default 2048)")
	t.target = fs.Float64("slo-target", 0,
		"availability target whose error budget the burn-rate alerts consume, e.g. 0.99 (0 = default 0.99)")
	return t
}

// Enabled reports whether any telemetry flag turned the hub on.
func (t *Telemetry) Enabled() bool { return *t.enabled || *t.out != "" }

// Hub builds the configured hub, or nil when telemetry is off. slo is the
// run's latency objective (the -slo flag for serving; seconds). A non-finite
// -telemetry-interval or -slo-target is an error naming the flag, telemetry
// on or off, so a bad command line stops before the run.
func (t *Telemetry) Hub(slo sim.Time) (*telemetry.Hub, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"-telemetry-interval", *t.interval}, {"-slo-target", *t.target}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("cliopts: %s must be finite, got %v", f.name, f.v)
		}
	}
	if !t.Enabled() {
		return nil, nil
	}
	return telemetry.New(telemetry.Config{
		Interval: sim.Time(*t.interval),
		RingCap:  *t.ring,
		SLO:      slo,
		Target:   *t.target,
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
	if *t.out != "" {
		if err := doc.WriteFile(*t.out); err != nil {
			return nil, err
		}
		fmt.Printf("wrote telemetry to %s\n", *t.out)
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
	if *c.report != "" {
		if err := r.Validate(); err != nil {
			return err
		}
		if err := r.WriteFile(*c.report); err != nil {
			return err
		}
		fmt.Printf("wrote run report to %s\n", *c.report)
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

// ReportPath returns the -report destination (empty = no report requested).
func (c *Common) ReportPath() string { return *c.report }
