// Package fault provides a seeded, deterministic fault injector for the
// simulated multi-GPU machine: scheduled GPU crashes, transient stalls
// (stragglers), and NVLink degradation or partition. Faults are described by
// a compact spec string (CLI-friendly), applied by an Injector daemon
// process running inside the simulation engine, and observed by the rest of
// the system through a shared membership View. Because every schedule is
// explicit virtual times and every random schedule is derived from a seed,
// recovery runs are bit-for-bit reproducible.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// Crash permanently fails a GPU at a virtual instant.
	Crash Kind = iota
	// Stall seizes all of a GPU's threads for a duration (a straggler).
	Stall
	// LinkDown takes an NVLink link out of service for a duration; traffic
	// routed over it queues behind the outage (a partition that heals).
	LinkDown
	// LinkDegrade divides an NVLink link's bandwidth by Factor for a
	// duration.
	LinkDegrade
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case LinkDown:
		return "linkdown"
	case LinkDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled fault.
type Fault struct {
	Kind Kind
	// GPU is the target GPU (Crash, Stall) or the link's first endpoint
	// (LinkDown, LinkDegrade).
	GPU int
	// Peer is the link's second endpoint (link faults only).
	Peer int
	// At is the injection instant in virtual seconds from the start of the
	// run.
	At sim.Time
	// Duration is how long the fault persists (zero for Crash: permanent).
	Duration sim.Time
	// Factor is the bandwidth division for LinkDegrade (e.g. 4 = quarter
	// bandwidth).
	Factor float64
}

// String renders the fault in the spec grammar accepted by ParseSpec.
func (f Fault) String() string {
	switch f.Kind {
	case Crash:
		return fmt.Sprintf("crash@gpu%d:t=%g", f.GPU, float64(f.At))
	case Stall:
		return fmt.Sprintf("stall@gpu%d:t=%g+%s", f.GPU, float64(f.At), formatDur(f.Duration))
	case LinkDown:
		return fmt.Sprintf("linkdown@gpu%d-gpu%d:t=%g+%s", f.GPU, f.Peer, float64(f.At), formatDur(f.Duration))
	case LinkDegrade:
		return fmt.Sprintf("degrade@gpu%d-gpu%d:t=%g+%s:x%g", f.GPU, f.Peer, float64(f.At), formatDur(f.Duration), f.Factor)
	default:
		return fmt.Sprintf("fault(%d)", int(f.Kind))
	}
}

// formatDur renders d in whole milliseconds when parseDur reads that back as
// d exactly, and in seconds otherwise (0.009 s is not 9 * 1e-3).
func formatDur(d sim.Time) string {
	ms := float64(d) * 1e3
	if ms == float64(int64(ms)) && sim.Time(float64(int64(ms))*1e-3) == d {
		return fmt.Sprintf("%dms", int64(ms))
	}
	return fmt.Sprintf("%gs", float64(d))
}

// FormatSpec renders a schedule as a spec string (inverse of ParseSpec).
func FormatSpec(faults []Fault) string {
	parts := make([]string, len(faults))
	for i, f := range faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated fault schedule, e.g.
//
//	crash@gpu2:t=1.5,stall@gpu0:t=0.8+50ms
//	linkdown@gpu0-gpu1:t=0.5+10ms,degrade@gpu1-gpu2:t=0.3+20ms:x4
//
// Grammar per entry: kind@target:t=<seconds>[+<duration>][:x<factor>] where
// kind is crash|stall|linkdown|degrade, target is gpuN (crash, stall) or
// gpuN-gpuM (link faults), duration accepts s/ms/us suffixes, and x<factor>
// is the LinkDegrade bandwidth divisor (default 4). nGPU bounds the valid
// GPU ids.
func ParseSpec(spec string, nGPU int) ([]Fault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Fault
	for _, entry := range strings.Split(spec, ",") {
		f, err := parseEntry(strings.TrimSpace(entry), nGPU)
		if err != nil {
			return nil, fmt.Errorf("fault: bad entry %q: %w", entry, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func parseEntry(s string, nGPU int) (Fault, error) {
	var f Fault
	kindTarget, rest, ok := strings.Cut(s, ":")
	if !ok {
		return f, fmt.Errorf("missing ':t=' clause")
	}
	kind, target, ok := strings.Cut(kindTarget, "@")
	if !ok {
		return f, fmt.Errorf("missing '@gpuN' target")
	}
	switch kind {
	case "crash":
		f.Kind = Crash
	case "stall":
		f.Kind = Stall
	case "linkdown":
		f.Kind = LinkDown
	case "degrade":
		f.Kind = LinkDegrade
	default:
		return f, fmt.Errorf("unknown kind %q (want crash, stall, linkdown or degrade)", kind)
	}

	isLink := f.Kind == LinkDown || f.Kind == LinkDegrade
	if isLink {
		a, b, ok := strings.Cut(target, "-")
		if !ok {
			return f, fmt.Errorf("link fault target must be gpuN-gpuM, got %q", target)
		}
		var err error
		if f.GPU, err = parseGPU(a, nGPU); err != nil {
			return f, err
		}
		if f.Peer, err = parseGPU(b, nGPU); err != nil {
			return f, err
		}
		if f.GPU == f.Peer {
			return f, fmt.Errorf("link endpoints must differ")
		}
	} else {
		var err error
		if f.GPU, err = parseGPU(target, nGPU); err != nil {
			return f, err
		}
	}

	// rest: t=<sec>[+<dur>][:x<factor>]
	tPart := rest
	if f.Kind == LinkDegrade {
		f.Factor = 4
		if base, fac, ok := strings.Cut(rest, ":"); ok {
			tPart = base
			if !strings.HasPrefix(fac, "x") {
				return f, fmt.Errorf("degrade factor must look like x4, got %q", fac)
			}
			v, err := strconv.ParseFloat(fac[1:], 64)
			if err != nil || !(v > 1) || math.IsInf(v, 1) {
				return f, fmt.Errorf("degrade factor must be a number > 1, got %q", fac)
			}
			f.Factor = v
		}
	}
	if !strings.HasPrefix(tPart, "t=") {
		return f, fmt.Errorf("expected t=<seconds>, got %q", tPart)
	}
	tv := tPart[2:]
	durStr := ""
	// The duration follows the first '+' that is not an exponent's sign
	// (Fault.String renders t=1e+21 for a late enough fault).
	for i := 1; i < len(tv); i++ {
		if tv[i] == '+' && tv[i-1] != 'e' && tv[i-1] != 'E' {
			tv, durStr = tv[:i], tv[i+1:]
			break
		}
	}
	at, err := strconv.ParseFloat(tv, 64)
	if err != nil || !(at >= 0) || math.IsInf(at, 1) {
		return f, fmt.Errorf("bad injection time %q (want non-negative seconds)", tv)
	}
	f.At = sim.Time(at)
	if durStr != "" {
		d, err := parseDur(durStr)
		if err != nil {
			return f, err
		}
		f.Duration = d
	}
	switch f.Kind {
	case Crash:
		if f.Duration != 0 {
			return f, fmt.Errorf("crash is permanent; it takes no +duration")
		}
	default:
		if f.Duration <= 0 {
			return f, fmt.Errorf("%s needs a positive +duration (e.g. +50ms)", f.Kind)
		}
	}
	return f, nil
}

func parseGPU(s string, nGPU int) (int, error) {
	if !strings.HasPrefix(s, "gpu") {
		return 0, fmt.Errorf("target must look like gpuN, got %q", s)
	}
	id, err := strconv.Atoi(s[3:])
	if err != nil || id < 0 {
		return 0, fmt.Errorf("bad GPU id %q", s)
	}
	if nGPU > 0 && id >= nGPU {
		return 0, fmt.Errorf("gpu%d out of range (machine has %d GPUs)", id, nGPU)
	}
	return id, nil
}

func parseDur(s string) (sim.Time, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "ms"):
		mult, s = 1e-3, s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		mult, s = 1e-6, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v*mult > 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("bad duration %q (want e.g. 50ms, 0.05s)", s)
	}
	return sim.Time(v * mult), nil
}

// Sort orders a schedule by injection time (stable, so equal-time faults
// keep spec order). The injector applies faults in this order.
func Sort(faults []Fault) {
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })
}

// RandomSchedule derives a reproducible Poisson fault schedule from a seed:
// crashes at crashRate per virtual second and stalls at stallRate per
// virtual second over [0, horizon), targets drawn uniformly over the n GPUs.
// At least one GPU is always left alive (excess crash arrivals are dropped).
func RandomSchedule(seed uint64, n int, horizon sim.Time, crashRate, stallRate float64, stallDur sim.Time) []Fault {
	var out []Fault
	dead := make([]bool, n)
	deadCount := 0
	r := rng.New(rng.Mix(seed, 0xFA117))
	for t := sim.Time(0); crashRate > 0; {
		t += sim.Time(r.Exp(crashRate))
		if t >= horizon {
			break
		}
		g := r.Intn(n)
		if dead[g] || deadCount == n-1 {
			continue
		}
		dead[g] = true
		deadCount++
		out = append(out, Fault{Kind: Crash, GPU: g, At: t})
	}
	r = rng.New(rng.Mix(seed, 0x57A11))
	for t := sim.Time(0); stallRate > 0; {
		t += sim.Time(r.Exp(stallRate))
		if t >= horizon {
			break
		}
		out = append(out, Fault{Kind: Stall, GPU: r.Intn(n), At: t, Duration: stallDur})
	}
	Sort(out)
	return out
}

// CrashError reports a fatal GPU crash that interrupted the run. The
// training driver recovers from it by restoring a checkpoint and replaying.
// GPU is the id the schedule named (cluster-wide on a cluster).
type CrashError struct {
	GPU int
	At  sim.Time
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: gpu%d crashed at t=%g", e.GPU, float64(e.At))
}

// Aborted is the panic value used to unwind a collective participant whose
// group membership changed mid-operation (a peer crashed). Degraded-mode
// callers recover it and retry the operation under the new view; anything
// else propagating it is a bug.
type Aborted struct {
	// Gen is the membership generation the aborted attempt started under.
	Gen int
}

func (a Aborted) Error() string {
	return fmt.Sprintf("fault: collective aborted (membership generation %d superseded)", a.Gen)
}
