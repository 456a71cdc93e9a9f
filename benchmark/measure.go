package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// summary condenses a sample of host timings.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	return summary{N: len(s), Min: s[0], Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75), Max: s[len(s)-1]}
}

func median(vals []float64) float64 { return summarize(vals).Median }

// hostCost is what one timed call cost the host.
type hostCost struct {
	seconds  float64
	allocB   uint64
	mallocs  uint64
	numGC    uint32
	gcPauseS float64
}

// timed collects garbage (untimed), then runs fn and reports its wall time
// and heap traffic. ReadMemStats stops the world, so it stays outside the
// timed region.
func timed(fn func() error) (hostCost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return hostCost{
		seconds:  el.Seconds(),
		allocB:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
		numGC:    m1.NumGC - m0.NumGC,
		gcPauseS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
	}, err
}

// timedRep runs repetition i of inst under timed.
func timedRep(inst instance, i int) (facts, hostCost, error) {
	var f facts
	cost, err := timed(func() error {
		var err error
		f, err = inst.rep(i)
		return err
	})
	return f, cost, err
}

// microResult is a micro-benchmark loop's per-operation cost.
type microResult struct {
	nsPerOp     float64
	allocsPerOp float64
	seconds     float64
}

// micro calls fn repeatedly for about budgetNS of host time (at least once)
// and reports the mean cost per call. fn returns how many operations the
// call performed.
func micro(budgetNS int64, fn func() int) microResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := 0
	t0 := time.Now()
	for {
		ops += fn()
		if time.Since(t0).Nanoseconds() >= budgetNS {
			break
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if ops == 0 {
		ops = 1
	}
	return microResult{
		nsPerOp:     float64(el.Nanoseconds()) / float64(ops),
		allocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		seconds:     el.Seconds(),
	}
}

// calibSink keeps the calibration kernels' results alive.
var calibSink float64

// calibrate runs two fixed kernels — one compute-bound, one memory-bound —
// and returns their best-of-three wall times in milliseconds. They do the
// same work on every commit, so a drift between runs is the machine's, not
// the code's.
func calibrate() (computeMS, memoryMS float64) {
	buf := make([]float64, 1<<21) // 16 MiB: larger than the sandbox's cache
	for i := range buf {
		buf[i] = float64(i)
	}
	computeMS, memoryMS = math.Inf(1), math.Inf(1)
	for range 3 {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 4_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		computeMS = min(computeMS, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		var s float64
		for i := 0; i < len(buf); i += 8 {
			s += buf[i]
		}
		for i := range buf {
			buf[i] += 1
		}
		memoryMS = min(memoryMS, time.Since(t0).Seconds()*1e3)
		calibSink += x + s
	}
	return computeMS, memoryMS
}

// environment describes the host a result came from.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnvironment() environment {
	e := environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// peakRSSMB reads the process's high-water resident set from /proc; 0 where
// that is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// limitProcs applies the load shape: GOMAXPROCS = min(nproc, 2). The GC
// target stays at Go's default, which shapes host_s.
func limitProcs() { runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)) }

// endToEnd is the result of the untraced measurement of one workload.
type endToEnd struct {
	Reps      int       `json:"reps"`
	VirtReps  int       `json:"virt_reps"`
	Setups    []float64 `json:"setup_s_each"`
	HostS     summary   `json:"host_s"`
	AllocMB   summary   `json:"host_alloc_mb"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Values    map[string]float64
	Checks    []check `json:"checks"`
}

// runEndToEnd measures one workload with tracing off: set-up twice, one
// warm-up repetition, then repetitions for at least seconds of host time
// (and at least the scale's minimum count).
func runEndToEnd(sp spec, sc scale, seed uint64, seconds float64) (*endToEnd, error) {
	out := &endToEnd{Values: map[string]float64{}}
	ck := &checker{}

	// Set-up runs twice: the first system only serves the cross-check that
	// two builds from one seed agree; the second is measured.
	first, err := setup(nil, sp, sc, seed)
	if err != nil {
		return nil, err
	}
	second, err := setup(nil, sp, sc, seed)
	if err != nil {
		return nil, err
	}
	out.Setups = []float64{first.times.total(), second.times.total()}
	warmA, err := first.inst.rep(0)
	if err != nil {
		return nil, err
	}
	first = nil // release the first system before measuring
	warmB, err := second.inst.rep(0)
	if err != nil {
		return nil, err
	}
	ck.equal("two set-ups from one seed give identical virtual results", warmA, warmB)

	var host, alloc []float64
	var all []facts
	start := time.Now()
	for i := 1; len(all) < sc.minReps || time.Since(start).Seconds() < seconds; i++ {
		f, cost, err := timedRep(second.inst, i)
		if err != nil {
			return nil, err
		}
		host = append(host, cost.seconds)
		alloc = append(alloc, float64(cost.allocB)/1e6)
		all = append(all, f)
		out.Attempted += f.Attempted
		out.Failed += f.Failed
	}
	out.Reps = len(all)
	out.HostS = summarize(host)
	out.AllocMB = summarize(alloc)

	// Virtual metrics use a fixed number of repetitions, so they do not
	// depend on how many the host managed to fit into the window.
	out.VirtReps = sc.minReps
	var lat, work, virtS, wire float64
	for _, f := range all[:out.VirtReps] {
		lat += f.LatencyS
		work += f.Work
		virtS += f.VirtS
		wire += float64(f.WireBytes)
	}
	n := float64(out.VirtReps)
	// min for host_s: this box's noise is additive (other tenants, GC
	// timing), so the fastest repetition is the best estimate of the cost.
	out.Values["setup_s"] = median(out.Setups)
	out.Values["host_s"] = out.HostS.Min
	out.Values["host_alloc_mb"] = out.AllocMB.Median
	out.Values["virt_latency_ms"] = lat / n * 1e3
	out.Values["virt_throughput"] = work / virtS
	out.Values["virt_wire_mb"] = wire / n / 1e6

	ck.add("no operation failed", out.Failed == 0, fmt.Sprintf("%d of %d failed", out.Failed, out.Attempted))
	second.inst.check(ck, all)
	out.Checks = ck.list
	return out, nil
}
