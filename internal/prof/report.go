// Package prof is the pipeline profiler: it consumes trace.Tracer events
// and computes, deterministically, where a run's virtual time went —
// per-GPU × per-lane busy/idle utilisation, queue-wait and CCC-wait stall
// attribution, the critical path of the run (which stage on which GPU
// bounded wall time), and comm/compute overlap fractions.
//
// It also defines the versioned RunReport JSON schema dsptrain and dspserve
// emit with -report: one machine-readable document the dspprof analyzer
// summarises and validates, with one text view (RunReport.Summary) that
// dspserve and dspprof summary both print.
//
// All quantities are functions of virtual time, so identical seeds produce
// byte-identical reports on any host. That makes the regression gate exact:
// tier-1 holds the reports of fixed runs to pinned hashes (internal/bench's
// TestTrainPinned, internal/serve's TestServePinned) rather than comparing
// metrics under a tolerance.
package prof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Schema is the RunReport format version. Bump the suffix on any
// backwards-incompatible change; readers reject unknown versions.
const Schema = "dsp-runreport/1"

// RunReport is the canonical run summary shared by every CLI. Optional
// sections are nil/empty when a run has nothing to report there (a serving
// run has no epochs; a fault-free run has no Faults section).
type RunReport struct {
	Schema  string `json:"schema"`
	Command string `json:"command"`           // dsptrain | dspserve | dspbench
	System  string `json:"system,omitempty"`  // DSP, DSP-Seq, DGL-UVA, ...
	Dataset string `json:"dataset,omitempty"` // products, papers, friendster
	GPUs    int    `json:"gpus"`
	Seed    uint64 `json:"seed"`
	Shrink  int    `json:"shrink,omitempty"` // dataset shrink divisor, when known

	// WallTime is the total VIRTUAL time of the run in seconds — the
	// simulated clock, not what the simulation cost the host. Host time is
	// never part of a report (it would break byte-identical same-seed runs).
	WallTime float64 `json:"wall_time"`
	// Stages sums per-stage busy time across ranks and steps (seconds);
	// under the pipeline these overlap, so their sum exceeds WallTime.
	Stages map[string]float64 `json:"stages,omitempty"`
	// Utilization is each GPU's busy fraction over the last measured window.
	Utilization []float64 `json:"utilization,omitempty"`

	Wire Wire `json:"wire"`
	// Compression maps traffic class -> raw vs wire bytes for collectives
	// that carried a codec.
	Compression map[string]WireStat `json:"compression,omitempty"`

	Cache *CacheReport `json:"cache,omitempty"`
	// Store is the out-of-core tier's accounting (runs with -ooc).
	Store *StoreSection `json:"store,omitempty"`
	// Strategy is the execution strategy's own wire/compute accounting.
	// Only non-default strategies emit it (-strategy p3); DSP runs omit the
	// block so their reports stay byte-identical across the strategy
	// refactor.
	Strategy *StrategySection `json:"strategy,omitempty"`

	// Latency is the end-to-end request latency distribution (serving runs).
	Latency *LatencySummary `json:"latency,omitempty"`
	// StageLatency holds the per-step stage duration distributions of a
	// training run (keys: sample, load, train).
	StageLatency map[string]*LatencySummary `json:"stage_latency,omitempty"`

	Epochs  []EpochReport  `json:"epochs,omitempty"`
	Serving *ServingReport `json:"serving,omitempty"`
	Faults  *FaultReport   `json:"faults,omitempty"`
	// Fleet is the replicated-fleet router section (dspserve -fleets N>1):
	// routing policy, per-fleet outcomes, and autoscaler events.
	Fleet *FleetSection `json:"fleet,omitempty"`

	// Telemetry condenses the live telemetry hub of a -telemetry run:
	// scraper cadence, series/sample counts, the SLO stream, and the
	// burn-rate rule/alert outcome (the full document lives in the
	// dsp-telemetry/1 file; this section is the report-level summary).
	Telemetry *TelemetrySection `json:"telemetry,omitempty"`

	// Profile is the trace-derived pipeline profile (present when the run
	// traced; -report without -trace still records an in-memory trace).
	Profile *Profile `json:"profile,omitempty"`
}

// Wire aggregates fabric traffic by semantic class, in wire bytes.
type Wire struct {
	Sample  int64 `json:"sample"`
	Feature int64 `json:"feature"`
	Grad    int64 `json:"grad"`
	Inter   int64 `json:"inter,omitempty"` // inter-machine NIC traffic
}

// WireStat is raw payload bytes versus bytes actually charged to the fabric.
type WireStat struct {
	Raw  int64 `json:"raw"`
	Wire int64 `json:"wire"`
}

// CacheReport is the tiered feature-read accounting plus adaptive-cache
// adaptation totals (zero under the static policy).
type CacheReport struct {
	Policy        string  `json:"policy,omitempty"`
	Local         int64   `json:"local"`
	Peer          int64   `json:"peer"`
	Host          int64   `json:"host"`
	HitRate       float64 `json:"hit_rate"`
	Promoted      int64   `json:"promoted,omitempty"`
	MovedBytes    int64   `json:"moved_bytes,omitempty"`
	Rebalances    int     `json:"rebalances,omitempty"`
	RebalanceTime float64 `json:"rebalance_time,omitempty"` // seconds
}

// StoreSection is the out-of-core block store's accounting: the block table
// (topology + feature blocks over the spill device), cache residency at run
// end, demand/prefetch traffic, and reader stall time.
type StoreSection struct {
	// Blocks is the total block count; TopoBlocks of them hold topology
	// (compressed when Compressed), the rest feature rows.
	Blocks     int   `json:"blocks"`
	TopoBlocks int   `json:"topo_blocks"`
	BlockBytes int64 `json:"block_bytes"`
	Compressed bool  `json:"compressed,omitempty"`
	// CacheBytes is the host block-cache budget; ResidentBytes the bytes
	// resident at run end; SpilledBytes the remainder on the device.
	CacheBytes    int64 `json:"cache_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	SpilledBytes  int64 `json:"spilled_bytes"`
	// Hits/Misses are block touches; DemandBytes were fetched inline by
	// stalled readers.
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	DemandBytes int64   `json:"demand_bytes"`
	// Prefetcher outcome: issued/used counts, their ratio, and bytes moved.
	PrefetchIssued   int64   `json:"prefetch_issued,omitempty"`
	PrefetchUsed     int64   `json:"prefetch_used,omitempty"`
	PrefetchAccuracy float64 `json:"prefetch_accuracy,omitempty"`
	PrefetchBytes    int64   `json:"prefetch_bytes,omitempty"`
	// StallTime is virtual time readers spent blocked on fetches; Device*
	// are the spill device's totals.
	StallTime   float64 `json:"stall_time"`
	DeviceReads int64   `json:"device_reads"`
	DeviceBytes int64   `json:"device_bytes"`
}

// StrategySection is the execution-strategy accounting block: which layout
// ran, how the feature width was sliced across GPUs, and what the
// strategy-specific exchanges cost. For P3 the push/pull pair is the
// layer-1 activation exchange that replaces DSP's feature gather.
type StrategySection struct {
	Name string `json:"name"` // dsp | p3
	// FeatureDim is the full feature width; SliceDims the per-GPU column
	// slice widths (they sum to FeatureDim).
	FeatureDim int   `json:"feature_dim,omitempty"`
	SliceDims  []int `json:"slice_dims,omitempty"`
	// PushBytes/PullBytes are the wire bytes charged for the forward
	// partial-activation push and the backward activation-gradient pull.
	PushBytes int64 `json:"push_bytes,omitempty"`
	PullBytes int64 `json:"pull_bytes,omitempty"`
	// PartialFlops is the model-parallel first-layer compute; ReduceBytes
	// the partial-activation reduction kernel traffic.
	PartialFlops int64 `json:"partial_flops,omitempty"`
	ReduceBytes  int64 `json:"reduce_bytes,omitempty"`
	// ShardedParams counts first-layer weight elements excluded from the
	// allreduce wire because each replica owns only its column shard.
	ShardedParams int `json:"sharded_params,omitempty"`
}

// LatencySummary is a rendered metrics.Histogram: the conventional
// percentiles plus count/mean/min/max, all in the histogram's native unit.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Latency renders a histogram into its summary (nil for empty histograms).
func Latency(h *metrics.Histogram) *LatencySummary {
	if h == nil || h.Count() == 0 {
		return nil
	}
	return &LatencySummary{
		Count: h.Count(), Mean: h.Mean(),
		P50: h.P50(), P95: h.P95(), P99: h.P99(),
		Min: h.Min(), Max: h.Max(),
	}
}

// EpochReport is one training epoch. Start/End are virtual timestamps when
// the driver recorded them (zero otherwise — e.g. fault-tolerant replays).
type EpochReport struct {
	Epoch       int     `json:"epoch"`
	Start       float64 `json:"start,omitempty"`
	End         float64 `json:"end,omitempty"`
	Time        float64 `json:"time"` // virtual seconds
	Acc         float64 `json:"acc,omitempty"`
	ValAcc      float64 `json:"val_acc,omitempty"`
	SampleStage float64 `json:"sample_stage,omitempty"`
	LoadStage   float64 `json:"load_stage,omitempty"`
	TrainStage  float64 `json:"train_stage,omitempty"`
}

// ServingReport carries the serving-only scalars of a dspserve run.
type ServingReport struct {
	Offered         float64 `json:"offered"`
	Throughput      float64 `json:"throughput"`
	Arrived         int     `json:"arrived"`
	Completed       int     `json:"completed"`
	Shed            int     `json:"shed"`
	ShedRate        float64 `json:"shed_rate"`
	Rounds          int     `json:"rounds"`
	MeanBatch       float64 `json:"mean_batch"`
	ExpectedHitRate float64 `json:"expected_hit_rate,omitempty"`
	Rerouted        int     `json:"rerouted,omitempty"`
	Lost            int     `json:"lost,omitempty"`
	DeadGPUs        []int   `json:"dead_gpus,omitempty"`
	// QuotaRejected counts arrivals rejected by per-tenant token buckets
	// (a subset of Shed).
	QuotaRejected int `json:"quota_rejected,omitempty"`
	// Tenants is the per-tenant admission outcome of a multi-tenant run.
	Tenants []TenantReport `json:"tenants,omitempty"`
	// Goodput is the within-SLO completion accounting of an SLO-bearing run.
	Goodput *GoodputReport `json:"goodput,omitempty"`
}

// TenantReport is one tenant's admission outcome totals.
type TenantReport struct {
	Name     string `json:"name"`
	Admitted int    `json:"admitted"`
	Rejected int    `json:"rejected"`
}

// GoodputReport renders a metrics.Goodput counter: how much within-SLO work
// per virtual second the run delivered.
type GoodputReport struct {
	SLO      float64 `json:"slo"`    // seconds
	Window   float64 `json:"window"` // counter bucket width, seconds
	Good     uint64  `json:"good"`
	Total    uint64  `json:"total"`
	Rate     float64 `json:"rate"` // within-SLO completions per virtual second
	Fraction float64 `json:"fraction"`
}

// GoodputFrom renders a goodput counter (nil for nil/empty counters).
func GoodputFrom(g *metrics.Goodput) *GoodputReport {
	if g == nil || g.Total() == 0 {
		return nil
	}
	return &GoodputReport{
		SLO: g.SLO(), Window: g.Window(),
		Good: g.Good(), Total: g.Total(),
		Rate: g.Rate(), Fraction: g.GoodFraction(),
	}
}

// FleetSection is the replicated-fleet router summary: one entry per built
// fleet plus router-level routing and autoscaling outcomes.
type FleetSection struct {
	Policy string `json:"policy"`
	// Built is the number of fleets constructed (autoscaler headroom
	// included); Active the number serving traffic at run end.
	Built  int `json:"built"`
	Active int `json:"active"`
	// Rerouted counts requests rescued from dying fleets by the router;
	// DeadFleets lists fleets killed by whole-fleet faults.
	Rerouted   int                `json:"rerouted,omitempty"`
	DeadFleets []int              `json:"dead_fleets,omitempty"`
	PerFleet   []FleetEntry       `json:"per_fleet"`
	Scale      []ScaleEventReport `json:"scale,omitempty"`
}

// FleetEntry is one fleet's outcome under the router.
type FleetEntry struct {
	ID    int    `json:"id"`
	State string `json:"state"` // active | draining | standby | dead
	// Routed counts requests the router sent here; Completed those answered.
	Routed    int `json:"routed"`
	Completed int `json:"completed"`
	// Rerouted counts requests rescued FROM this fleet (orphaned admissions
	// re-routed at its death, plus intra-fleet GPU-crash reroutes); Lost the
	// dispatched requests it never answered.
	Rerouted int            `json:"rerouted,omitempty"`
	Lost     int            `json:"lost,omitempty"`
	P99      float64        `json:"p99,omitempty"` // seconds
	Goodput  *GoodputReport `json:"goodput,omitempty"`
	DeadGPUs []int          `json:"dead_gpus,omitempty"`
}

// ScaleEventReport is one autoscaler action.
type ScaleEventReport struct {
	At     float64 `json:"at"`     // virtual seconds
	Action string  `json:"action"` // up | drain | standby
	Fleet  int     `json:"fleet"`
	P99    float64 `json:"p99"` // window p99 that triggered the action, seconds
	// Reason marks actions not explained by the p99 band alone — "burn-rate"
	// when a firing page alert forced the decision. Empty for classic
	// SLO-band actions so pre-telemetry reports stay byte-identical.
	Reason string `json:"reason,omitempty"`
}

// TelemetrySection summarises a live-telemetry run inside the run report.
type TelemetrySection struct {
	// Interval is the scraper cadence (virtual seconds); Scrapes how many
	// ticks ran; Series how many sources were registered; Samples the
	// retained ring samples across all series; Dropped the ring-evicted
	// samples.
	Interval float64 `json:"interval"`
	Scrapes  int     `json:"scrapes"`
	Series   int     `json:"series"`
	Samples  int     `json:"samples"`
	Dropped  int     `json:"dropped,omitempty"`
	// Requests/Shed/BadFraction mirror the SLO stream fed to the burn-rate
	// engine; Exemplars counts the latency drill-down records kept.
	Requests    int              `json:"requests"`
	Shed        int              `json:"shed,omitempty"`
	BadFraction float64          `json:"bad_fraction"`
	Exemplars   int              `json:"exemplars,omitempty"`
	Rules       []TelemetryRule  `json:"rules,omitempty"`
	Alerts      []TelemetryAlert `json:"alerts,omitempty"`
}

// TelemetryRule is one burn-rate rule's configuration and outcome.
type TelemetryRule struct {
	Name  string  `json:"name"`
	Short float64 `json:"short"` // seconds
	Long  float64 `json:"long"`  // seconds
	Burn  float64 `json:"burn"`  // threshold, multiples of budget rate
	Fired int     `json:"fired"`
}

// TelemetryAlert is one closed firing interval.
type TelemetryAlert struct {
	Rule  string  `json:"rule"`
	Start float64 `json:"start"` // seconds
	End   float64 `json:"end"`   // seconds
	Peak  float64 `json:"peak"`  // highest burn while firing
}

// FaultReport summarises fault-tolerance outcomes: recoveries with MTTR and
// checkpoint overhead.
type FaultReport struct {
	Recoveries      []RecoveryReport `json:"recoveries,omitempty"`
	MeanMTTR        float64          `json:"mean_mttr,omitempty"` // seconds
	Checkpoints     int              `json:"checkpoints,omitempty"`
	CkptBytes       int64            `json:"ckpt_bytes,omitempty"`
	CkptOverheadPct float64          `json:"ckpt_overhead_pct,omitempty"`
}

// RecoveryReport is one absorbed crash.
type RecoveryReport struct {
	GPU  int     `json:"gpu"`
	At   float64 `json:"at"`   // virtual seconds
	MTTR float64 `json:"mttr"` // seconds (<0: never repaired)
}

// New returns a report with the schema stamped.
func New(command string) *RunReport {
	return &RunReport{Schema: Schema, Command: command}
}

// Attach is the one epilogue every run report passes through after its
// builder rendered the run's own sections: it embeds the telemetry hub's
// section (nil when telemetry was off) and, when tracer is enabled, the
// pipeline profile analysed from its events. The run's identity (command,
// system, dataset, GPUs, seed, shrink) is the caller's to set.
func (r *RunReport) Attach(tel *TelemetrySection, tracer *trace.Tracer) {
	r.Telemetry = tel
	if tracer.Enabled() {
		r.Profile = Analyze(FromTracer(tracer))
	}
}

// WriteJSON emits the report as deterministic, indented JSON: struct fields
// in declaration order, map keys sorted by encoding/json, HTML left alone.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// EncodeJSON renders the report to bytes (WriteJSON into a buffer).
func (r *RunReport) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile writes the report to path.
func (r *RunReport) WriteFile(path string) error {
	data, err := r.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ParseReport decodes and validates a RunReport document.
func ParseReport(data []byte) (*RunReport, error) {
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("prof: bad report JSON: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ReadReportFile loads and validates a RunReport from path.
func ReadReportFile(path string) (*RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseReport(data)
}

// Validate checks the report against its schema: version, required fields,
// and internal consistency of the profile section.
func (r *RunReport) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("prof: unsupported schema %q (want %q)", r.Schema, Schema)
	}
	if r.Command == "" {
		return fmt.Errorf("prof: report missing command")
	}
	if r.GPUs < 0 {
		return fmt.Errorf("prof: negative gpu count %d", r.GPUs)
	}
	if r.WallTime < 0 {
		return fmt.Errorf("prof: negative wall time %g", r.WallTime)
	}
	for name, v := range r.Stages {
		if v < 0 {
			return fmt.Errorf("prof: negative stage time %s=%g", name, v)
		}
	}
	if s := r.Store; s != nil {
		if s.Blocks < 0 || s.TopoBlocks < 0 || s.TopoBlocks > s.Blocks {
			return fmt.Errorf("prof: store block counts inconsistent (blocks %d topo %d)", s.Blocks, s.TopoBlocks)
		}
		if s.Hits < 0 || s.Misses < 0 {
			return fmt.Errorf("prof: negative store hit/miss counts (%d/%d)", s.Hits, s.Misses)
		}
		if s.ResidentBytes < 0 || s.ResidentBytes > s.BlockBytes {
			return fmt.Errorf("prof: store resident bytes %d outside [0, %d]", s.ResidentBytes, s.BlockBytes)
		}
		if s.ResidentBytes+s.SpilledBytes != s.BlockBytes {
			return fmt.Errorf("prof: store resident %d + spilled %d != block bytes %d",
				s.ResidentBytes, s.SpilledBytes, s.BlockBytes)
		}
		if s.PrefetchUsed > s.PrefetchIssued {
			return fmt.Errorf("prof: store prefetch used %d > issued %d", s.PrefetchUsed, s.PrefetchIssued)
		}
		if s.StallTime < 0 {
			return fmt.Errorf("prof: negative store stall time %g", s.StallTime)
		}
	}
	if s := r.Strategy; s != nil {
		switch s.Name {
		case "dsp", "p3":
		default:
			return fmt.Errorf("prof: unknown strategy %q in strategy section", s.Name)
		}
		if s.PushBytes < 0 || s.PullBytes < 0 || s.PartialFlops < 0 || s.ReduceBytes < 0 || s.ShardedParams < 0 {
			return fmt.Errorf("prof: negative strategy counters (push %d pull %d flops %d reduce %d sharded %d)",
				s.PushBytes, s.PullBytes, s.PartialFlops, s.ReduceBytes, s.ShardedParams)
		}
		if s.FeatureDim > 0 && len(s.SliceDims) > 0 {
			sum := 0
			for _, w := range s.SliceDims {
				if w < 0 {
					return fmt.Errorf("prof: negative strategy slice width %d", w)
				}
				sum += w
			}
			if sum != s.FeatureDim {
				return fmt.Errorf("prof: strategy slice widths sum to %d, want feature dim %d", sum, s.FeatureDim)
			}
		}
	}
	if f := r.Fleet; f != nil {
		if f.Policy == "" {
			return fmt.Errorf("prof: fleet section missing policy")
		}
		if f.Built < 1 || f.Active < 0 || f.Active > f.Built {
			return fmt.Errorf("prof: fleet counts inconsistent (built %d active %d)", f.Built, f.Active)
		}
		if len(f.PerFleet) != f.Built {
			return fmt.Errorf("prof: fleet section has %d entries for %d fleets", len(f.PerFleet), f.Built)
		}
	}
	if t := r.Telemetry; t != nil {
		if t.Interval <= 0 {
			return fmt.Errorf("prof: telemetry interval %g must be positive", t.Interval)
		}
		if t.Scrapes < 0 || t.Series < 0 || t.Samples < 0 || t.Dropped < 0 {
			return fmt.Errorf("prof: negative telemetry counters (scrapes %d series %d samples %d dropped %d)",
				t.Scrapes, t.Series, t.Samples, t.Dropped)
		}
		if t.Requests < 0 || t.Shed < 0 {
			return fmt.Errorf("prof: negative telemetry request counts (%d/%d)", t.Requests, t.Shed)
		}
		if t.BadFraction < 0 || t.BadFraction > 1 {
			return fmt.Errorf("prof: telemetry bad_fraction %g outside [0,1]", t.BadFraction)
		}
		rules := make(map[string]int, len(t.Rules))
		for _, ru := range t.Rules {
			if ru.Short <= 0 || ru.Long <= 0 || ru.Short >= ru.Long {
				return fmt.Errorf("prof: telemetry rule %q windows %g/%g must satisfy 0 < short < long",
					ru.Name, ru.Short, ru.Long)
			}
			if ru.Burn <= 0 {
				return fmt.Errorf("prof: telemetry rule %q burn threshold %g must be positive", ru.Name, ru.Burn)
			}
			if ru.Fired < 0 {
				return fmt.Errorf("prof: telemetry rule %q fired %d times", ru.Name, ru.Fired)
			}
			rules[ru.Name] = ru.Fired
		}
		fired := make(map[string]int)
		for _, a := range t.Alerts {
			if _, ok := rules[a.Rule]; !ok {
				return fmt.Errorf("prof: telemetry alert references unknown rule %q", a.Rule)
			}
			if a.Start > a.End {
				return fmt.Errorf("prof: telemetry alert %q starts at %g after its end %g", a.Rule, a.Start, a.End)
			}
			fired[a.Rule]++
		}
		for name, want := range rules {
			if fired[name] != want {
				return fmt.Errorf("prof: telemetry rule %q lists %d fired, %d alerts present", name, want, fired[name])
			}
		}
	}
	if p := r.Profile; p != nil {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}
