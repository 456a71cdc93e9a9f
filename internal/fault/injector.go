package fault

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Applied records one fault the injector actually fired (for reports).
type Applied struct {
	Fault Fault
	At    sim.Time // global virtual time of application (Base + local time)
}

// Injector schedules a fault list onto a machine. It runs as a daemon
// process inside the simulation engine: it sleeps to each fault's instant
// and applies it, so faults interleave deterministically with the workload.
//
// Crash handling has two modes. With no OnCrash handler registered
// (training), a crash interrupts the whole engine with a *CrashError — the
// fail-stop model where the job dies and the driver restores a checkpoint.
// With handlers registered (serving), the crash only updates the membership
// View and runs the handlers; the fleet keeps running degraded.
type Injector struct {
	m      *hw.Machine
	first  int     // cluster-wide id of m's GPU 0
	faults []Fault // m's share, sorted by At, under machine-local GPU ids
	view   *View

	// Base is the global virtual time already consumed by previous
	// incarnations of the machine (training recovery rebuilds the fleet on a
	// fresh engine). Fault times are global; the injector subtracts Base and,
	// when Base is non-zero, skips faults at or before it — the crash that set
	// Base (and anything scheduled up to that instant) was already delivered
	// to the previous incarnation.
	Base sim.Time

	armed   bool
	proc    *sim.Proc
	onCrash []func(p *sim.Proc, f Fault)
	applied []Applied
}

// NewInjector validates the schedule and returns an unarmed injector for m's
// share of it. Fault GPU ids are cluster-wide: on a stand-alone machine its
// own, on machine i of a cluster of n-GPU machines GPU g is i*n+g, and every
// machine's injector takes the whole schedule and keeps its own GPUs' faults.
// Link faults must name NVLink-adjacent GPU pairs, so both ends on one machine.
func NewInjector(m *hw.Machine, faults []Fault) (*Injector, error) {
	n := len(m.GPUs)
	total := n
	if m.Cluster != nil {
		total = n * len(m.Cluster.Machines)
	}
	in := &Injector{m: m, first: m.Index * n, view: NewView(n)}
	sorted := append([]Fault(nil), faults...)
	Sort(sorted)
	for _, f := range sorted {
		ids := []int{f.GPU}
		if f.Kind == LinkDown || f.Kind == LinkDegrade {
			ids = append(ids, f.Peer)
		}
		for _, id := range ids {
			if id < 0 || id >= total {
				return nil, fmt.Errorf("fault: gpu%d out of range (the run has gpu0..gpu%d)", id, total-1)
			}
		}
		if len(ids) == 2 && f.Peer/n != f.GPU/n {
			return nil, fmt.Errorf("fault: link gpu%d-gpu%d spans machines %d and %d (NVLink joins GPUs of one machine)",
				f.GPU, f.Peer, f.GPU/n, f.Peer/n)
		}
		if f.GPU/n != m.Index {
			continue // another machine's injector delivers it
		}
		if len(ids) == 2 && m.Fabric.Topo.NVLinkIndex(f.GPU%n, f.Peer%n) < 0 {
			return nil, fmt.Errorf("fault: no direct NVLink between gpu%d and gpu%d", f.GPU, f.Peer)
		}
		f.GPU, f.Peer = f.GPU%n, f.Peer%n
		in.faults = append(in.faults, f)
	}
	return in, nil
}

// View returns the injector's membership view (shared with communicators,
// coordinators and servers).
func (in *Injector) View() *View { return in.view }

// OnCrash registers a degraded-mode crash handler, called in engine context
// at the crash instant after the View reflects the death. Registering any
// handler disables the default engine interrupt.
func (in *Injector) OnCrash(fn func(p *sim.Proc, f Fault)) {
	in.onCrash = append(in.onCrash, fn)
}

// Applied returns the faults fired so far, in order.
func (in *Injector) Applied() []Applied { return in.applied }

// Arm spawns the injector daemon if it is not already running and faults
// remain. Safe to call before every Engine.Run.
func (in *Injector) Arm() {
	if in.armed || len(in.faults) == 0 {
		return
	}
	in.armed = true
	in.proc = in.m.Eng.GoDaemon("fault/injector", in.run)
}

// Stop kills the injector daemon (end of run; remaining faults never fire).
func (in *Injector) Stop() {
	if in.proc != nil {
		in.m.Eng.Kill(in.proc)
		in.proc = nil
	}
	in.armed = false
}

func (in *Injector) run(p *sim.Proc) {
	for _, f := range in.faults {
		at := f.At - in.Base
		if at < 0 || (at == 0 && in.Base > 0) {
			// Fired during a previous incarnation of the machine; the
			// rebuilt fleet starts healthy (fail-stop restart model).
			continue
		}
		if at > p.Now() {
			p.Sleep(at - p.Now())
		}
		in.apply(p, f)
	}
}

func (in *Injector) apply(p *sim.Proc, f Fault) {
	eng := in.m.Eng
	now := eng.Now()
	in.applied = append(in.applied, Applied{Fault: f, At: now + in.Base})
	in.instant(f.GPU, f.String())
	switch f.Kind {
	case Crash:
		if !in.view.Alive(f.GPU) {
			return
		}
		in.view.Kill(f.GPU)
		if len(in.onCrash) == 0 {
			eng.Interrupt(&CrashError{GPU: in.first + f.GPU, At: now + in.Base})
			return
		}
		for _, fn := range in.onCrash {
			fn(p, f)
		}
	case Stall:
		if !in.view.Alive(f.GPU) {
			return
		}
		dev := in.m.GPUs[f.GPU]
		eng.GoDaemon(fmt.Sprintf("fault/stall-gpu%d", f.GPU), func(sp *sim.Proc) {
			start := sp.Now()
			dev.Seize(sp, f.Duration)
			in.span(f.GPU, fmt.Sprintf("stall gpu%d", f.GPU), start, sp.Now())
		})
	case LinkDown:
		li := in.m.Fabric.Topo.NVLinkIndex(f.GPU, f.Peer)
		eng.GoDaemon(fmt.Sprintf("fault/linkdown-gpu%d-gpu%d", f.GPU, f.Peer), func(sp *sim.Proc) {
			start := sp.Now()
			in.m.Fabric.SeizeLink(sp, li, f.Duration)
			in.span(f.GPU, fmt.Sprintf("linkdown gpu%d-gpu%d", f.GPU, f.Peer), start, sp.Now())
		})
	case LinkDegrade:
		li := in.m.Fabric.Topo.NVLinkIndex(f.GPU, f.Peer)
		in.m.Fabric.SetLinkScale(li, 1/f.Factor)
		eng.GoDaemon(fmt.Sprintf("fault/degrade-gpu%d-gpu%d", f.GPU, f.Peer), func(sp *sim.Proc) {
			start := sp.Now()
			sp.Sleep(f.Duration)
			in.m.Fabric.SetLinkScale(li, 1)
			in.span(f.GPU, fmt.Sprintf("degrade gpu%d-gpu%d x%g", f.GPU, f.Peer, f.Factor), start, sp.Now())
		})
	}
}

func (in *Injector) instant(gpu int, name string) {
	tr := in.m.GPUs[gpu].Tracer
	// Process-scoped: a fault marker concerns the whole GPU, not one lane.
	tr.Instant(name, "fault", gpu, trace.LaneFaults, float64(in.m.Eng.Now()), "p", nil)
}

func (in *Injector) span(gpu int, name string, start, end sim.Time) {
	tr := in.m.GPUs[gpu].Tracer
	tr.Complete(name, "fault", gpu, trace.LaneFaults, float64(start), float64(end), nil)
}
