// Command benchmark is the repository's two-clock benchmark: four workloads,
// six bounded end-to-end metrics plus a failure count, and a per-layer ledger
// measured from outside the layers. See README.md in this directory.
//
// With -workload it measures that one workload in this process and prints a
// result object as its last line (the form BENCHMARK.json's command uses).
// Without it, it runs every workload in a child process of its own, one after
// another, untraced then traced, and prints the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	scale        string
	outDir       string
	outFile      string
	verifyRepeat bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "measure this one workload and print a result object (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 2023, "seeds the run: shuffles, sampling, codecs, request arrivals (datasets are pinned)")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds of measured repetitions per workload")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures end to end with tracing off, 1 is the traced run that gives the per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "full or tiny (smoke-test size)")
	flag.StringVar(&o.outDir, "outdir", defaultOutDir(), "directory for spans files")
	flag.StringVar(&o.outFile, "out", "", "also write the results of all workloads to this JSON file")
	flag.BoolVar(&o.verifyRepeat, "verify-repeat", false, "run two end-to-end sets on the same code and fail if any metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultOutDir puts outputs next to the benchmark's sources whether the
// command runs from the repository root or from this directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func run(o options, w io.Writer) error {
	sc, err := scaleByName(o.scale)
	if err != nil {
		return err
	}
	switch {
	case o.workload != "":
		rep, err := measureWorkload(o, sc)
		if err != nil {
			return err
		}
		return rep.print(w)
	case o.verifyRepeat:
		return verifyRepeat(o, w)
	default:
		return runAll(o, w)
	}
}

func scaleByName(name string) (scale, error) {
	switch name {
	case fullScale.name:
		return fullScale, nil
	case tinyScale.name:
		return tinyScale, nil
	}
	return scale{}, fmt.Errorf("unknown -scale %q (want full or tiny)", name)
}

// metricValue is one number of a result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a -workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one -workload run found: the result object plus the
// detail the tables and the results file show.
type report struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Scale    string      `json:"scale"`
	Trace    int         `json:"trace"`
	Env      environment `json:"environment"`
	Result   result      `json:"result"`
	Checks   []check     `json:"checks"`
	Notes    []string    `json:"notes,omitempty"`
	// Untraced runs.
	Reps        int       `json:"reps,omitempty"`
	VirtReps    int       `json:"virt_reps,omitempty"`
	SetupsS     []float64 `json:"setup_s_each,omitempty"`
	HostS       *summary  `json:"host_s_dist,omitempty"`
	HostAllocMB *summary  `json:"host_alloc_mb_dist,omitempty"`
	// Traced runs.
	HostUntraced float64  `json:"host_s_untraced,omitempty"`
	HostTraced   float64  `json:"host_s_traced,omitempty"`
	SpansFile    string   `json:"spans_file,omitempty"`
	Inactive     []string `json:"inactive_layers,omitempty"`
}

// measureWorkload runs one workload in this process.
func measureWorkload(o options, sc scale) (*report, error) {
	sp, ok := specs[o.workload]
	if !ok {
		var names []string
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	limitProcs()
	rep := &report{Workload: sp.name, Seed: o.seed, Scale: sc.name, Trace: o.trace, Env: currentEnvironment(),
		Result: result{Metrics: map[string]metricValue{}}}
	switch o.trace {
	case 0:
		e, err := runEndToEnd(sp, sc, o.seed, o.seconds)
		if err != nil {
			return nil, err
		}
		for _, m := range endToEndDefs {
			rep.Result.Metrics[m.Name] = metricValue{e.Values[m.Name], m.Unit}
		}
		rep.Result.Attempted, rep.Result.Failed = e.Attempted, e.Failed
		rep.Checks = e.Checks
		rep.Reps, rep.VirtReps, rep.SetupsS, rep.HostS, rep.HostAllocMB = e.Reps, e.VirtReps, e.Setups, &e.HostS, &e.AllocMB
	case 1:
		t, err := runTraced(sp, sc, o.seed, o.outDir)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayerDefs {
			v, measured := t.Values[m.Name]
			switch {
			case !m.appliesTo(sp.name):
				rep.Inactive = append(rep.Inactive, m.Name)
			case !measured:
				return nil, fmt.Errorf("%s: traced run did not produce %s", sp.name, m.Name)
			}
			rep.Result.Metrics[m.Name] = metricValue{v, m.Unit}
		}
		// The traced run attempts its checks; a failed one is a failed operation.
		rep.Result.Attempted = len(t.Checks)
		rep.Checks, rep.Notes = t.Checks, t.Notes
		rep.HostUntraced, rep.HostTraced, rep.SpansFile = t.HostUntraced, t.HostTraced, t.SpansFile
	default:
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	for name, mv := range rep.Result.Metrics {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", sp.name, name)
		}
	}
	rep.Result.Correct = allOK(rep.Checks)
	if o.trace == 1 {
		for _, c := range rep.Checks {
			if !c.OK {
				rep.Result.Failed++
			}
		}
	}
	return rep, nil
}

// detailPrefix marks the line that carries a run's full report, for the
// parent process; the result object stays the last line.
const detailPrefix = "detail: "

// print writes the human-readable summary, the detail line and the result
// object, and fails if any check did.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  scale %s  trace %d  GOMAXPROCS %d of %d (%s, %s)\n",
		r.Workload, r.Seed, r.Scale, r.Trace, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.GoVersion, r.Env.CPUModel)
	if r.Workload == wServeOpen {
		fmt.Fprintln(w, "open loop: Poisson arrivals are generated in virtual time, so generator lateness is 0 by construction")
	}
	if r.Trace == 0 {
		fmt.Fprintf(w, "repetitions %d (virtual metrics over the first %d)  host_s min %.4f q1 %.4f median %.4f q3 %.4f max %.4f  set-ups %.3f s\n",
			r.Reps, r.VirtReps, r.HostS.Min, r.HostS.Q1, r.HostS.Median, r.HostS.Q3, r.HostS.Max, r.SetupsS)
		for _, m := range endToEndDefs {
			fmt.Fprintf(w, "  %-18s %14.6g %-6s %-7s clock %-8s bound %g\n", m.Name, r.Result.Metrics[m.Name].Value, m.Unit, m.Better, m.Clock, m.Bound)
		}
		fmt.Fprintf(w, "  %-18s %14.6g        lower   (%d failed of %d attempted; bound 0)\n", "failed_frac",
			float64(r.Result.Failed)/float64(max(r.Result.Attempted, 1)), r.Result.Failed, r.Result.Attempted)
	} else {
		fmt.Fprintf(w, "tracing overhead: fastest untraced repetition beside them %.4f s, fastest traced %.4f s, difference %+.4f s; spans in %s\n",
			r.HostUntraced, r.HostTraced, r.HostTraced-r.HostUntraced, r.SpansFile)
		for _, m := range perLayerDefs {
			if m.appliesTo(r.Workload) {
				fmt.Fprintf(w, "  %-38s %14.6g %-10s clock %-8s moves %s\n", m.Name, r.Result.Metrics[m.Name].Value, m.Unit, m.Clock, m.Moves)
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "CHECK FAILED: %s: %s\n", c.Name, c.Msg)
		}
	}
	fmt.Fprintf(w, "checks: %d run, all passed: %v\n", len(r.Checks), r.Result.Correct)
	detail, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", detailPrefix, detail)
	last, err := json.Marshal(r.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", last)
	if !r.Result.Correct {
		return fmt.Errorf("%s: a correctness check failed", r.Workload)
	}
	return nil
}

// child runs this binary on one workload in a fresh process (own heap, own
// peak RSS) and returns its report.
func child(o options, workload string, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-scale", o.scale, "-outdir", o.outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var rep *report
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			rep = &report{}
			if err := json.Unmarshal([]byte(rest), rep); err != nil {
				return nil, fmt.Errorf("%s: bad detail line: %w", workload, err)
			}
		}
	}
	if rep == nil {
		return nil, fmt.Errorf("%s (trace %d): no report: %v", workload, trace, runErr)
	}
	return rep, nil
}

// runAll is the full benchmark: every workload untraced, then traced.
func runAll(o options, w io.Writer) error {
	var reports []*report
	failed := false
	for _, wd := range workloadDefs {
		for trace := 0; trace <= 1; trace++ {
			fmt.Fprintf(w, "running %s (trace %d) ...\n", wd.Name, trace)
			rep, err := child(o, wd.Name, trace)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
			failed = failed || !rep.Result.Correct
		}
	}
	printTables(w, reports)
	if o.outFile != "" {
		data, err := json.MarshalIndent(map[string]any{"schema": "dsp-twoclock/1", "seed": o.seed, "scale": o.scale,
			"seconds": o.seconds, "environment": reports[0].Env, "runs": reports}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "results written to %s\n", o.outFile)
	}
	if failed {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// printTables prints one end-to-end table and one per-layer table, workloads
// as columns.
func printTables(w io.Writer, reports []*report) {
	byKey := map[string]*report{}
	for _, r := range reports {
		byKey[fmt.Sprintf("%s/%d", r.Workload, r.Trace)] = r
	}
	header := func(first string, width int) {
		fmt.Fprintf(w, "\n%-*s", width, first)
		for _, wd := range workloadDefs {
			fmt.Fprintf(w, " %14s", wd.Name)
		}
	}
	header("end to end (tracing off)", 30)
	fmt.Fprintf(w, "  %-6s %-7s %-8s %s\n", "unit", "better", "clock", "bound")
	for _, m := range endToEndDefs {
		fmt.Fprintf(w, "%-30s", m.Name)
		for _, wd := range workloadDefs {
			fmt.Fprintf(w, " %14.6g", byKey[wd.Name+"/0"].Result.Metrics[m.Name].Value)
		}
		fmt.Fprintf(w, "  %-6s %-7s %-8s %g\n", m.Unit, m.Better, m.Clock, m.Bound)
	}
	fmt.Fprintf(w, "%-30s", "failed_frac")
	for _, wd := range workloadDefs {
		r := byKey[wd.Name+"/0"].Result
		fmt.Fprintf(w, " %14.6g", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Fprintf(w, "  %-6s %-7s %-8s %s\n", "frac", "lower", "-", "0 (absolute)")
	fmt.Fprintf(w, "%-30s", "repetitions")
	for _, wd := range workloadDefs {
		fmt.Fprintf(w, " %14d", byKey[wd.Name+"/0"].Reps)
	}
	fmt.Fprintf(w, "\n%-30s", "host_s median [q1, q3]")
	for _, wd := range workloadDefs {
		h := byKey[wd.Name+"/0"].HostS
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%.3f[%.2f,%.2f]", h.Median, h.Q1, h.Q3))
	}
	fmt.Fprintln(w)

	header("per layer (traced run)", 38)
	fmt.Fprintf(w, "  %-10s %-8s %s\n", "unit", "clock", "should move")
	for _, m := range perLayerDefs {
		fmt.Fprintf(w, "%-38s", m.Name)
		for _, wd := range workloadDefs {
			if m.appliesTo(wd.Name) {
				fmt.Fprintf(w, " %14.6g", byKey[wd.Name+"/1"].Result.Metrics[m.Name].Value)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintf(w, "  %-10s %-8s %s\n", m.Unit, m.Clock, m.Moves)
	}
	fmt.Fprintln(w, "\ntracing overhead (host seconds: two traced repetitions alternating with three untraced ones, fastest of each)")
	for _, wd := range workloadDefs {
		r := byKey[wd.Name+"/1"]
		fmt.Fprintf(w, "  %-14s untraced %.4f  traced %.4f  difference %+.4f  (spans: %s)\n",
			wd.Name, r.HostUntraced, r.HostTraced, r.HostTraced-r.HostUntraced, r.SpansFile)
	}
	for _, r := range reports {
		for _, n := range r.Notes {
			fmt.Fprintf(w, "note (%s): %s\n", r.Workload, n)
		}
		for _, c := range r.Checks {
			if !c.OK {
				fmt.Fprintf(w, "CHECK FAILED (%s, trace %d): %s: %s\n", r.Workload, r.Trace, c.Name, c.Msg)
			}
		}
	}
}

// verifyRepeat runs the end-to-end measurement twice on the same code and
// seed and holds every workload x metric to the benchmark's own bounds: the
// virtual metrics and the failure count exactly, the host metrics within
// their bound.
func verifyRepeat(o options, w io.Writer) error {
	var sets [2]map[string]*report
	for i := range sets {
		sets[i] = map[string]*report{}
		for _, wd := range workloadDefs {
			fmt.Fprintf(w, "set %d: running %s ...\n", i+1, wd.Name)
			rep, err := child(o, wd.Name, 0)
			if err != nil {
				return err
			}
			if !rep.Result.Correct {
				return fmt.Errorf("%s: a correctness check failed", wd.Name)
			}
			sets[i][wd.Name] = rep
		}
	}
	fmt.Fprintf(w, "\n%-14s %-18s %14s %14s %10s %8s\n", "workload", "metric", "first", "second", "gap", "bound")
	var over []string
	for _, wd := range workloadDefs {
		a, b := sets[0][wd.Name].Result, sets[1][wd.Name].Result
		for _, m := range endToEndDefs {
			x, y := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			gap := math.Abs(x-y) / math.Min(math.Abs(x), math.Abs(y))
			bound := m.Bound
			if m.Clock == clockVirtual {
				bound = 0 // one seed: the virtual clock repeats exactly
			}
			mark := ""
			if gap > bound {
				mark = "  OVER"
				over = append(over, wd.Name+"/"+m.Name)
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %9.3f%% %7.1f%%%s\n", wd.Name, m.Name, x, y, 100*gap, 100*bound, mark)
		}
		fa, fb := float64(a.Failed)/float64(a.Attempted), float64(b.Failed)/float64(b.Attempted)
		mark := ""
		if fa != fb {
			mark = "  OVER"
			over = append(over, wd.Name+"/failed_frac")
		}
		fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %10s %8s%s\n", wd.Name, "failed_frac", fa, fb, "", "0", mark)
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("two runs of the same code differ by more than the bound on: %s", strings.Join(over, ", "))
	}
	fmt.Fprintln(w, "two runs of the same code agree within every bound")
	return nil
}
