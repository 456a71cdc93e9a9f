// Package bench regenerates every table and figure of the paper's
// evaluation (Section 7) on the simulated machine. Each experiment returns
// a structured Table that the dspbench CLI prints and this package's tests
// assert on.
//
// Scaling methodology: datasets are scaled stand-ins (internal/gen) and the
// simulated GPU memory shrinks by the same factor, so cache-pressure
// regimes match the paper. Because batch SIZE stays at the paper's 1024
// while batch COUNT shrinks ~25x, per-batch fixed costs (kernel launches,
// cudaMalloc, link latencies) are divided by the same ~25x in benchmark
// runs — otherwise fixed overheads would weigh ~25x more than on the real
// testbed and distort every ratio. Virtual epoch times are therefore
// directly comparable to the paper's after multiplying by the dataset scale
// factor.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/train"
)

// RunConfig controls experiment scale.
type RunConfig struct {
	// Shrink divides dataset node counts (1 = benchmark scale; tests use
	// larger values for speed).
	Shrink int
	// Warmup and Measure are epochs discarded / averaged. The paper uses
	// 5/10; the simulator is deterministic, so 1/2 suffices by default.
	Warmup, Measure int
	// Parallel is the OS-thread budget for offloaded simulator data work
	// (train.Options.Parallel); every result is bitwise identical at any
	// value, so it only changes wall-clock time.
	Parallel int
	// JSON switches table output from aligned text to one JSON object per
	// table (machine-readable sweep results).
	JSON bool
	// Telemetry attaches a telemetry hub to the serving sweeps and asserts
	// the burn-rate alert engine stays silent on the healthy baseline
	// configurations (a fired alert fails the sweep).
	Telemetry bool
}

// batchCountScale is the paper-batches / stand-in-batches ratio the fixed
// per-batch costs are divided by (see the package comment).
const batchCountScale = 25

// Table is one experiment's result grid.
type Table struct {
	Title string
	Unit  string
	Cols  []string
	Rows  []string
	Cells [][]float64
	Notes []string
}

// NewTable allocates a rows x cols grid.
func NewTable(title, unit string, rows, cols []string) *Table {
	t := &Table{Title: title, Unit: unit, Rows: rows, Cols: cols}
	t.Cells = make([][]float64, len(rows))
	for i := range t.Cells {
		t.Cells[i] = make([]float64, len(cols))
	}
	return t
}

// Set stores a cell by row/col name, panicking on unknown names (experiment
// code addresses tables it constructed itself, so a miss is a programming
// error). Use SetCell for the error-returning variant.
func (t *Table) Set(row, col string, v float64) {
	if err := t.SetCell(row, col, v); err != nil {
		panic(err)
	}
}

// Get reads a cell by row/col name, panicking on unknown names. Use GetCell
// for the error-returning variant.
func (t *Table) Get(row, col string) float64 {
	v, err := t.GetCell(row, col)
	if err != nil {
		panic(err)
	}
	return v
}

// SetCell stores a cell by row/col name; an unknown name yields an error
// listing the valid ones.
func (t *Table) SetCell(row, col string, v float64) error {
	ri, ci, err := t.cell(row, col)
	if err != nil {
		return err
	}
	t.Cells[ri][ci] = v
	return nil
}

// GetCell reads a cell by row/col name; an unknown name yields an error
// listing the valid ones.
func (t *Table) GetCell(row, col string) (float64, error) {
	ri, ci, err := t.cell(row, col)
	if err != nil {
		return 0, err
	}
	return t.Cells[ri][ci], nil
}

// cell resolves (row, col) names to indices.
func (t *Table) cell(row, col string) (int, int, error) {
	ri := slices.Index(t.Rows, row)
	if ri < 0 {
		return 0, 0, fmt.Errorf("bench: unknown row %q in table %q (rows: %s)",
			row, t.Title, strings.Join(t.Rows, ", "))
	}
	ci := slices.Index(t.Cols, col)
	if ci < 0 {
		return 0, 0, fmt.Errorf("bench: unknown col %q in table %q (cols: %s)",
			col, t.Title, strings.Join(t.Cols, ", "))
	}
	return ri, ci, nil
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s", t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, " (%s)", t.Unit)
	}
	fmt.Fprintln(w)
	widths := make([]int, len(t.Cols)+1)
	for _, r := range t.Rows {
		if len(r) > widths[0] {
			widths[0] = len(r)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i := range t.Rows {
		cells[i] = make([]string, len(t.Cols))
		for j := range t.Cols {
			cells[i][j] = formatCell(t.Cells[i][j])
		}
	}
	for j, c := range t.Cols {
		widths[j+1] = len(c)
		for i := range t.Rows {
			if len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(w, "%-*s", widths[0], "")
	for j, c := range t.Cols {
		fmt.Fprintf(w, "  %*s", widths[j+1], c)
	}
	fmt.Fprintln(w)
	for i, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", widths[0], r)
		for j := range t.Cols {
			fmt.Fprintf(w, "  %*s", widths[j+1], cells[i][j])
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteJSON emits the table as a single machine-readable JSON object.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Title string      `json:"title"`
		Unit  string      `json:"unit,omitempty"`
		Cols  []string    `json:"cols"`
		Rows  []string    `json:"rows"`
		Cells [][]float64 `json:"cells"`
		Notes []string    `json:"notes,omitempty"`
	}{t.Title, t.Unit, t.Cols, t.Rows, t.Cells, t.Notes})
}

// check refuses a table that is not a consistent rows x cols grid of finite
// cells — a NaN or Inf is a division the experiment should not have made.
func (t *Table) check() error {
	if len(t.Cells) != len(t.Rows) {
		return fmt.Errorf("bench: table %q: %d cell rows for %d row labels", t.Title, len(t.Cells), len(t.Rows))
	}
	for i, row := range t.Cells {
		if len(row) != len(t.Cols) {
			return fmt.Errorf("bench: table %q row %q: %d cells for %d col labels", t.Title, t.Rows[i], len(row), len(t.Cols))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("bench: table %q cell (%s, %s) is %v", t.Title, t.Rows[i], t.Cols[j], v)
			}
		}
	}
	return nil
}

// formatCell prints with three significant figures, like the paper.
func formatCell(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// --- dataset and preparation caches ---------------------------------------

var (
	cacheMu   sync.Mutex
	dsCache   = map[string]*gen.Dataset{}
	prepCache = map[string]*train.Data{}
)

// dataset returns the (possibly weighted) generated stand-in, cached.
func dataset(name string, shrink int, weighted bool) (*gen.Dataset, gen.Standard) {
	std := gen.StandardDataset(name, shrink)
	key := fmt.Sprintf("%s/%d/%v", name, shrink, weighted)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if d, ok := dsCache[key]; ok {
		return d, std
	}
	d := gen.Generate(std.Config)
	if weighted {
		d.AttachUniformWeights(std.Config.Seed + 7)
	}
	dsCache[key] = d
	return d, std
}

// prepared returns the partitioned, renumbered dataset for nGPU, cached.
func prepared(name string, nGPU, shrink int, weighted, metis bool) *train.Data {
	d, std := dataset(name, shrink, weighted)
	key := fmt.Sprintf("%s/%d/%d/%v/%v", name, nGPU, shrink, weighted, metis)
	cacheMu.Lock()
	if td, ok := prepCache[key]; ok {
		cacheMu.Unlock()
		return td
	}
	cacheMu.Unlock()
	td := train.Prepare(d, nGPU, 13, metis)
	td.ScaleFactor = std.ScaleFactor
	td.GPUMemBytes = std.GPUMemBytes()
	td.BenchBatch = std.BenchBatch
	cacheMu.Lock()
	prepCache[key] = td
	cacheMu.Unlock()
	return td
}

// scaledGPU returns the V100 spec with per-batch fixed costs divided by the
// batch-count ratio (see package comment). Memory is set per dataset by
// Options.Defaults.
func scaledGPU() hw.GPUSpec {
	s := hw.V100()
	s.KernelLaunch /= batchCountScale
	s.MallocOverhead /= batchCountScale
	return s
}

// baseOpts assembles the default paper configuration for a prepared dataset:
// cost-only compute, and train.Options.Defaults' model and fan-out (3-layer
// GraphSAGE, hidden 256, fan-out [15,10,5]) unless the experiment sets its
// own. The batch size is the registry's scaled recommendation (steps per
// epoch stay in the paper's regime).
func baseOpts(td *train.Data, cfg RunConfig) train.Options {
	batch := td.BenchBatch
	if batch == 0 {
		batch = 256
	}
	return train.Options{
		Data:         td,
		GPU:          scaledGPU(),
		BatchSize:    batch,
		Pipeline:     true,
		UseCCC:       true,
		Seed:         2023,
		LatencyScale: batchCountScale,
		Parallel:     cfg.Parallel,
		// int8 gradient compression (~3.9x wire cut) keeps gradient traffic
		// in the paper's "much cheaper than sampling and loading" regime,
		// replacing the old wire-scale discount with a codec whose error is
		// actually applied to the reduced values.
		GradCodec: compress.NewInt8(2023),
	}
}

// systemNames in paper order.
var systemNames = []string{"PyG", "DGL-CPU", "Quiver", "DGL-UVA", "DSP"}

// buildSystem instantiates a system by its paper name.
func buildSystem(name string, opts train.Options) (train.System, error) {
	switch name {
	case "DSP":
		return core.New(opts)
	case "DSP-Seq":
		opts.Pipeline = false
		return core.New(opts)
	case "P3":
		opts.Strategy = "p3"
		return core.New(opts)
	default:
		kind, err := baselines.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		return baselines.New(kind, opts)
	}
}

// measure runs warmup epochs then averages epoch time over measured epochs.
func measure(sys train.System, cfg RunConfig, sampleOnly bool) (avgEpoch float64, last train.EpochStats, err error) {
	run := func(e int) (train.EpochStats, error) {
		if sampleOnly {
			return sys.RunSampleEpoch(e)
		}
		return sys.RunEpoch(e)
	}
	for e := 0; e < cfg.Warmup; e++ {
		if _, err := run(e); err != nil {
			return 0, train.EpochStats{}, err
		}
	}
	var total float64
	for e := 0; e < cfg.Measure; e++ {
		st, err := run(cfg.Warmup + e)
		if err != nil {
			return 0, train.EpochStats{}, err
		}
		total += float64(st.EpochTime)
		last = st
	}
	return total / float64(cfg.Measure), last, nil
}

// Experiments is the registry for the dspbench CLI: id -> runner.
var Experiments = map[string]func(w io.Writer, cfg RunConfig) error{
	"table1":            runnerFor(Table1),
	"fig1":              runnerFor(Fig1),
	"fig2":              runnerFor(Fig2),
	"table4":            runnerFor(Table4),
	"table5":            runnerFor(Table5),
	"table6":            runnerFor(Table6),
	"table7":            runnerFor(Table7),
	"fig6":              runnerFor(Fig6),
	"fig9":              runnerFor(Fig9),
	"fig10":             runnerFor(Fig10),
	"fig11":             runnerFor(Fig11),
	"fig12":             runnerFor(Fig12),
	"ablation-layout":   runnerFor(AblationPartition),
	"ablation-policy":   runnerFor(AblationCachePolicy),
	"ablation-queue":    runnerFor(AblationQueueCap),
	"ablation-ccc":      runnerFor(AblationCCC),
	"ablation-repcache": runnerFor(AblationReplicatedCache),
	"ablation-fused":    runnerFor(AblationFusedKernels),
	"ablation-workers":  runnerFor(AblationMultiWorker),
	"ext-multimachine":  runnerFor(AblationMultiMachine),
	"ext-gnn-archs":     runnerFor(ExtensionGNNArchs),
	"serve-load":        runnerFor(ServeLoad),
	"cache-sweep":       runnerFor(CacheSweep),
	"compress-sweep":    runnerFor(CompressSweep),
	"router-sweep":      runnerFor(RouterSweep),
	"ooc-sweep":         runnerFor(OOCSweep),
	"strategy-sweep":    runnerFor(StrategySweep),
	"fault-sweep":       runnerFor(FaultSweep),
	"perf":              Perf,
}

// ExperimentNames returns the registry keys sorted.
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments))
	for k := range Experiments {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// runnerFor adapts a Table-producing experiment to the registry: it runs the
// experiment, checks the table (Table.check) and renders it as aligned text,
// or as one JSON object when cfg.JSON is set.
func runnerFor(f func(cfg RunConfig) (*Table, error)) func(w io.Writer, cfg RunConfig) error {
	return func(w io.Writer, cfg RunConfig) error {
		t, err := f(cfg)
		if err != nil {
			return err
		}
		if err := t.check(); err != nil {
			return err
		}
		if cfg.JSON {
			return t.WriteJSON(w)
		}
		t.Fprint(w)
		return nil
	}
}

// gcnModel returns the paper's GCN config for a dataset.
func gcnModel(td *train.Data) nn.Config {
	return nn.Config{Arch: nn.GCN, InDim: td.FeatDim, Hidden: 256, Classes: td.NumClasses, Layers: 3}
}

// colName builds "products/4" style column labels.
func colName(ds string, gpus int) string { return fmt.Sprintf("%s/%d", ds, gpus) }

// dsList are the three evaluation datasets in paper order.
var dsList = gen.StandardNames

// gpuCounts are the evaluated GPU counts.
var gpuCounts = []int{1, 2, 4, 8}

// joinNotes formats a note list.
func joinNotes(parts ...string) string { return strings.Join(parts, "; ") }
