// Command dspbench regenerates the paper's tables and figures on the
// simulated multi-GPU machine.
//
// Usage:
//
//	dspbench -exp table4              # one experiment
//	dspbench -exp all                 # everything (takes a while)
//	dspbench -list                    # available experiment ids
//	dspbench -exp fig10 -shrink 4     # smaller stand-ins for a quick look
//	dspbench -exp table4 -warmup 5 -measure 10   # the paper's methodology
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		shrink  = flag.Int("shrink", 1, "dataset shrink divisor (1 = benchmark scale)")
		warmup  = flag.Int("warmup", 1, "warm-up epochs per configuration")
		measure = flag.Int("measure", 2, "measured epochs per configuration")
		report  = flag.String("report", "", "run the canonical perf workload and write its run report JSON here")
		par     = flag.Int("parallel", 1, "OS threads for offloaded simulator data work (results are bitwise identical at any value)")
		asJSON  = flag.Bool("json", false, "emit result tables as JSON objects instead of aligned text")
		tele    = flag.Bool("telemetry", false, "attach the telemetry hub to serving sweeps and fail if the burn-rate alert engine fires on a healthy baseline row")
	)
	flag.Parse()

	if *list {
		for _, name := range bench.ExperimentNames() {
			fmt.Println(name)
		}
		return
	}
	cfg := bench.RunConfig{Shrink: *shrink, Warmup: *warmup, Measure: *measure, Parallel: *par, JSON: *asJSON, Telemetry: *tele}
	if *report != "" {
		r, err := bench.PerfReport(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dspbench: perf: %v\n", err)
			os.Exit(1)
		}
		if err := r.WriteFile(*report); err != nil {
			fmt.Fprintf(os.Stderr, "dspbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote perf run report to %s\n", *report)
		if *exp == "" {
			return
		}
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "dspbench: -exp required (use -list to enumerate)")
		os.Exit(2)
	}
	names := []string{*exp}
	if *exp == "all" {
		names = bench.ExperimentNames()
	}
	for _, name := range names {
		runner, ok := bench.Experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "dspbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		if err := runner(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "dspbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if !*asJSON {
			fmt.Printf("[%s finished in %v wall time]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
}
