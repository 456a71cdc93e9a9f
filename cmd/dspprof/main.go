// Command dspprof analyses DSP runs: Chrome traces (from -trace) and run
// reports (from -report) feed the same pipeline profiler, which answers
// where the virtual time went — per-lane utilisation, queue/CCC stall
// attribution, the critical path, and comm/compute overlap — and checks a
// report against its schema. It compares nothing: virtual results are
// deterministic, so the regression gate is exact equality in tier-1
// (internal/bench's TestTrainPinned, internal/serve's TestServePinned).
//
// Usage:
//
//	dspprof summary run.json            # trace or run report
//	dspprof critical-path trace.json    # what bounded the wall time
//	dspprof top trace.json -n 10        # hottest spans by self time
//	dspprof validate report.json        # schema check
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "summary":
		err = cmdSummary(os.Args[2:])
	case "critical-path":
		err = cmdCriticalPath(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "dspprof: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dspprof: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dspprof summary <file>                      profile overview (trace or run report)
  dspprof critical-path <file> [-n N]         critical-path segments and decomposition
  dspprof top <file> [-n N]                   hottest spans by self time
  dspprof validate <file>                     check a run report against the schema`)
}

// load reads a file and returns its profile plus, for run reports, the
// report itself (nil for raw traces). Traces are analysed on the spot.
func load(path string) (*prof.Profile, *prof.RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if prof.IsReportJSON(data) {
		r, err := prof.ParseReport(data)
		if err != nil {
			return nil, nil, err
		}
		return r.Profile, r, nil
	}
	t, err := prof.ParseTrace(data)
	if err != nil {
		return nil, nil, err
	}
	return prof.Analyze(t), nil, nil
}

// one parses args, allowing flags and the input file in any order (stdlib
// flag stops at the first positional), and returns the one input file.
func one(args []string, fs *flag.FlagSet) (string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return "", err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			break
		}
		pos = append(pos, rest[0])
		args = rest[1:]
	}
	if len(pos) != 1 {
		return "", fmt.Errorf("expected exactly one input file")
	}
	return pos[0], nil
}

func cmdSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	path, err := one(args, fs)
	if err != nil {
		return err
	}
	p, r, err := load(path)
	if err != nil {
		return err
	}
	if r != nil {
		fmt.Print(r.Summary())
	}
	fmt.Print(p.Summary())
	return nil
}

func cmdCriticalPath(args []string) error {
	fs := flag.NewFlagSet("critical-path", flag.ContinueOnError)
	n := fs.Int("n", 30, "max segments to print (0 = all)")
	path, err := one(args, fs)
	if err != nil {
		return err
	}
	p, _, err := load(path)
	if err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("no profile section in %s", path)
	}
	fmt.Printf("critical path: %d segments over [%.6g, %.6g]s\n",
		len(p.CriticalPath), p.Window.Start, p.Window.End)
	if len(p.CriticalPathByCat) > 0 {
		fmt.Print("by category:")
		for _, k := range sortedKeys(p.CriticalPathByCat) {
			fmt.Printf("  %s %.4gs", k, p.CriticalPathByCat[k])
		}
		fmt.Println()
	}
	if len(p.CriticalPathByLane) > 0 {
		type kv struct {
			k string
			v float64
		}
		lanes := make([]kv, 0, len(p.CriticalPathByLane))
		for k, v := range p.CriticalPathByLane {
			lanes = append(lanes, kv{k, v})
		}
		sort.Slice(lanes, func(i, j int) bool {
			if lanes[i].v != lanes[j].v {
				return lanes[i].v > lanes[j].v
			}
			return lanes[i].k < lanes[j].k
		})
		fmt.Println("by lane:")
		for _, l := range lanes {
			fmt.Printf("  %-28s %.4gs\n", l.k, l.v)
		}
	}
	segs := p.CriticalPath
	if *n > 0 && len(segs) > *n {
		fmt.Printf("segments (first %d of %d):\n", *n, len(segs))
		segs = segs[:*n]
	} else {
		fmt.Println("segments:")
	}
	for _, s := range segs {
		where := s.Cat
		if s.Cat != "idle" {
			where = s.GPU + "/" + s.Lane
		}
		fmt.Printf("  [%.6g, %.6g] %-10.4g %-28s %s\n", s.Start, s.End, s.End-s.Start, where, s.Name)
	}
	return nil
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	n := fs.Int("n", 20, "rows to print")
	cat := fs.String("cat", "", "only spans in this category (e.g. kernel, comm, serve)")
	pid := fs.Int("pid", -1, "only spans on this process lane / GPU id (raw traces only)")
	path, err := one(args, fs)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rows []prof.SpanAgg
	if prof.IsReportJSON(data) {
		if *pid >= 0 {
			return fmt.Errorf("top -pid requires a raw trace (a report's span table is aggregated across lanes)")
		}
		r, err := prof.ParseReport(data)
		if err != nil {
			return err
		}
		if r.Profile == nil {
			return fmt.Errorf("no profile section in %s", path)
		}
		rows = r.Profile.TopSpans
		if *cat != "" {
			kept := rows[:0:0]
			for _, a := range rows {
				if a.Cat == *cat {
					kept = append(kept, a)
				}
			}
			rows = kept
		}
	} else {
		t, err := prof.ParseTrace(data)
		if err != nil {
			return err
		}
		rows = prof.FilteredTopSpans(t, *cat, *pid, 0)
	}
	if *n > 0 && len(rows) > *n {
		rows = rows[:*n]
	}
	fmt.Printf("%-32s %-8s %8s %12s %12s\n", "name", "cat", "count", "total(s)", "self(s)")
	for _, a := range rows {
		fmt.Printf("%-32s %-8s %8d %12.4g %12.4g\n", a.Name, a.Cat, a.Count, a.Total, a.Self)
	}
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	path, err := one(args, fs)
	if err != nil {
		return err
	}
	r, err := prof.ReadReportFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid %s report (%s on %s, wall time %.6gs)\n",
		path, r.Schema, r.Command, r.Dataset, r.WallTime)
	if r.Profile != nil && r.Profile.DroppedEvents > 0 {
		fmt.Printf("warning: trace ring dropped %d events; span aggregates undercount the run (raise -trace-max-events)\n",
			r.Profile.DroppedEvents)
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
