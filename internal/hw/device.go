package hw

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Device is a simulated GPU at runtime: a thread pool (so concurrent kernels
// from pipelined workers genuinely co-run when threads are available), a
// device-memory budget, and busy-time accounting for utilization reports.
type Device struct {
	ID   int
	Spec GPUSpec
	// Tracer, when set, records kernel and transfer spans (virtual time).
	Tracer *trace.Tracer

	eng     *sim.Engine
	threads *sim.Resource
	memUsed int64

	// Busy-time accounting: the integral of "at least one kernel resident",
	// which is what nvidia-smi style GPU utilization measures.
	active    int
	busySince sim.Time
	busyTotal sim.Time
	mallocs   int64
}

// NewDevice creates a simulated GPU.
func NewDevice(eng *sim.Engine, id int, spec GPUSpec) *Device {
	return &Device{ID: id, Spec: spec, eng: eng, threads: eng.NewResource(spec.Threads)}
}

// beginBusy/endBusy bracket any period during which a kernel is resident.
func (d *Device) beginBusy() {
	if d.active == 0 {
		d.busySince = d.eng.Now()
	}
	d.active++
}

func (d *Device) endBusy() {
	d.active--
	if d.active == 0 {
		d.busyTotal += d.eng.Now() - d.busySince
	}
}

// BusyTime returns the accumulated busy time. Call it only when no kernel is
// resident (e.g., after Engine.Run completes).
func (d *Device) BusyTime() sim.Time {
	if d.active != 0 {
		panic("hw: BusyTime read while kernels are resident")
	}
	return d.busyTotal
}

// BusyAt returns the busy time accumulated up to now, safe to call while
// kernels are resident: the telemetry scraper reads it mid-run to derive
// per-interval busy fractions.
func (d *Device) BusyAt(now sim.Time) sim.Time {
	if d.active > 0 {
		return d.busyTotal + (now - d.busySince)
	}
	return d.busyTotal
}

// ResetBusy zeroes the busy-time accumulator (for measurement windows that
// exclude warm-up).
func (d *Device) ResetBusy() {
	d.busyTotal = 0
	if d.active > 0 {
		d.busySince = d.eng.Now()
	}
}

// Seize occupies the device's entire thread pool for dur virtual seconds,
// modelling a transient stall (ECC scrub, thermal throttle, preempting
// tenant): queued kernels finish first (FIFO), then every new kernel waits
// behind the seizure. The stalled period does NOT count as busy time, so a
// straggler shows up as a utilization dip.
func (d *Device) Seize(p *sim.Proc, dur sim.Time) {
	d.threads.Acquire(p, d.Spec.Threads)
	p.Sleep(dur)
	d.threads.Release(d.Spec.Threads)
}

// RunKernel executes a kernel of the given kind over items work units using
// the kind's ideal thread allocation. It blocks in virtual time for the
// kernel duration and contends for device threads with concurrent kernels.
func (d *Device) RunKernel(p *sim.Proc, kind KernelKind, items int64) {
	d.RunKernelThreads(p, kind, items, d.Spec.IdealThreads(kind, items))
}

// RunKernelThreads is RunKernel with an explicit thread allocation (used by
// the Figure 2 thread-scaling sweep). The launch overhead elapses BEFORE the
// kernel occupies the device — it is host/driver time during which the GPU
// sits idle, which is what makes light kernels unable to keep utilization
// up (the paper's motivation for pipelining).
func (d *Device) RunKernelThreads(p *sim.Proc, kind KernelKind, items int64, threads int) {
	if threads > d.Spec.Threads {
		threads = d.Spec.Threads
	}
	if threads < 1 {
		threads = 1
	}
	dur := d.Spec.KernelDuration(kind, items, threads) - d.Spec.KernelLaunch
	p.Sleep(d.Spec.KernelLaunch)
	d.threads.Acquire(p, threads)
	d.beginBusy()
	start := d.eng.Now()
	p.Sleep(dur)
	d.endBusy()
	d.threads.Release(threads)
	if d.Tracer.Enabled() {
		d.Tracer.Complete(kernelName(kind), "kernel", d.ID, trace.LaneKernels,
			float64(start), float64(d.eng.Now()),
			map[string]string{"items": fmt.Sprint(items), "threads": fmt.Sprint(threads)})
	}
}

func kernelName(kind KernelKind) string {
	switch kind {
	case KernelSample:
		return "sample"
	case KernelGather:
		return "gather"
	case KernelCompute:
		return "compute"
	default:
		return "comm"
	}
}

// Transfer is an NVLink transfer initiated by this GPU; the communication
// kernel occupies a small thread allocation for its duration and counts as
// busy time (NCCL kernels are resident kernels).
func (d *Device) Transfer(p *sim.Proc, f *Fabric, dst int, bytes int64, class TrafficClass) {
	if dst == d.ID || bytes <= 0 {
		return
	}
	const commThreads = 256
	d.threads.Acquire(p, commThreads)
	d.beginBusy()
	start := d.eng.Now()
	f.Transfer(p, d.ID, dst, bytes, class)
	d.endBusy()
	d.threads.Release(commThreads)
	if d.Tracer.Enabled() {
		d.Tracer.Complete(fmt.Sprintf("nvlink->%d", dst), "comm", d.ID, trace.LaneNVLink,
			float64(start), float64(d.eng.Now()),
			map[string]string{"bytes": fmt.Sprint(bytes), "class": class.String()})
	}
}

// UVARead is a zero-copy host read initiated by this GPU (busy: the reading
// kernel is resident while PCIe requests are in flight).
func (d *Device) UVARead(p *sim.Proc, f *Fabric, items int64, itemBytes int, class TrafficClass) {
	if items <= 0 {
		return
	}
	const commThreads = 256
	d.threads.Acquire(p, commThreads)
	d.beginBusy()
	start := d.eng.Now()
	f.UVARead(p, d.ID, items, itemBytes, class)
	d.endBusy()
	d.threads.Release(commThreads)
	if d.Tracer.Enabled() {
		d.Tracer.Complete("uva", "comm", d.ID, trace.LaneUVA,
			float64(start), float64(d.eng.Now()),
			map[string]string{"items": fmt.Sprint(items), "class": class.String()})
	}
}

// Malloc models a cudaMalloc/cudaFree pair. Systems with caching allocators
// (DSP, DGL-UVA) never call it; Quiver pays it per sampling allocation.
func (d *Device) Malloc(p *sim.Proc) {
	d.mallocs++
	p.Sleep(d.Spec.MallocOverhead)
}

// Mallocs returns the number of Malloc calls (for profiling assertions).
func (d *Device) Mallocs() int64 { return d.mallocs }

// Reserve claims device memory, failing if the budget is exceeded. The data
// layout code uses it to enforce that topology patches and feature caches
// fit in the (scaled) 16 GB budget.
func (d *Device) Reserve(bytes int64) error {
	if d.memUsed+bytes > d.Spec.MemBytes {
		return fmt.Errorf("hw: GPU %d out of memory: used %d + %d > %d",
			d.ID, d.memUsed, bytes, d.Spec.MemBytes)
	}
	d.memUsed += bytes
	return nil
}

// MemFree returns the remaining device memory budget in bytes.
func (d *Device) MemFree() int64 { return d.Spec.MemBytes - d.memUsed }

// Host is the simulated CPU: a core pool shared by all CPU-side sampling
// workers, which is what makes the CPU-sampling baselines stop scaling.
type Host struct {
	Spec  CPUSpec
	cores *sim.Resource
}

// NewHost creates the simulated host CPU.
func NewHost(eng *sim.Engine, spec CPUSpec) *Host {
	return &Host{Spec: spec, cores: eng.NewResource(spec.Cores)}
}

// Sample runs a CPU sampling task that draws items neighbour samples using
// up to cores cores (FCFS contention with other workers).
func (h *Host) Sample(p *sim.Proc, items int64, cores int) {
	if items <= 0 {
		return
	}
	if cores < 1 {
		cores = 1
	}
	if cores > h.Spec.Cores {
		cores = h.Spec.Cores
	}
	dur := sim.Time(float64(items) / (h.Spec.SampleRate * float64(cores)))
	h.cores.Use(p, cores, dur)
}

// Gather runs a CPU feature-copy task of bytes using up to cores cores.
func (h *Host) Gather(p *sim.Proc, bytes int64, cores int) {
	if bytes <= 0 {
		return
	}
	if cores < 1 {
		cores = 1
	}
	if cores > h.Spec.Cores {
		cores = h.Spec.Cores
	}
	dur := sim.Time(float64(bytes) / (h.Spec.GatherRate * float64(cores)))
	h.cores.Use(p, cores, dur)
}

// Machine bundles the full simulated server: engine-bound devices, host and
// fabric. It is the root object systems are built on.
type Machine struct {
	Eng    *sim.Engine
	GPUs   []*Device
	Host   *Host
	Fabric *Fabric
	// Cluster is the cluster this machine belongs to (nil for a stand-alone
	// server) and Index its position in Cluster.Machines.
	Cluster *Cluster
	Index   int
}

// SetTracer attaches an event tracer to every device (nil detaches) and
// labels the trace lanes.
func (m *Machine) SetTracer(t *trace.Tracer) {
	for _, d := range m.GPUs {
		d.Tracer = t
		t.NamePid(d.ID, fmt.Sprintf("GPU %d", d.ID))
		t.NameLane(d.ID, trace.LaneKernels, "kernels")
		t.NameLane(d.ID, trace.LaneNVLink, "nvlink")
		t.NameLane(d.ID, trace.LaneUVA, "uva")
		t.NameLane(d.ID, trace.LaneSampler, "sampler stage")
		t.NameLane(d.ID, trace.LaneLoader, "loader stage")
		t.NameLane(d.ID, trace.LaneTrainer, "trainer stage")
		t.NameLane(d.ID, trace.LaneCCC, "ccc wait")
		t.NameLane(d.ID, trace.LaneFaults, "faults")
	}
}

// NewMachine builds an n-GPU DGX-1-class server on a fresh engine.
func NewMachine(n int, gpu GPUSpec, cpu CPUSpec) *Machine {
	return NewMachineScaled(n, gpu, cpu, 1)
}

// NewMachineScaled is NewMachine with per-message link latencies divided by
// latencyDiv. The benchmark harness runs datasets with ~25x fewer batches
// than the paper's testbed, so per-batch fixed costs (latencies, kernel
// launches) are divided by the same factor to preserve their relative
// weight (see internal/bench).
func NewMachineScaled(n int, gpu GPUSpec, cpu CPUSpec, latencyDiv float64) *Machine {
	return NewMachineOn(sim.NewEngine(), n, gpu, cpu, latencyDiv)
}

// NewMachineOn builds a machine on an existing engine, so several machines
// can share one simulation (the multi-machine cluster mode).
func NewMachineOn(eng *sim.Engine, n int, gpu GPUSpec, cpu CPUSpec, latencyDiv float64) *Machine {
	if latencyDiv < 1 {
		latencyDiv = 1
	}
	topo := DGX1(n)
	topo.PCIeLatency /= latencyDiv
	for i := range topo.Links {
		topo.Links[i].Latency /= latencyDiv
	}
	m := &Machine{
		Eng:    eng,
		Host:   NewHost(eng, cpu),
		Fabric: NewFabric(eng, topo),
	}
	for i := 0; i < n; i++ {
		m.GPUs = append(m.GPUs, NewDevice(eng, i, gpu))
	}
	return m
}

// Utilization returns each GPU's busy fraction of the window [start, end].
func (m *Machine) Utilization(start, end sim.Time) []float64 {
	out := make([]float64, len(m.GPUs))
	window := float64(end - start)
	if window <= 0 {
		return out
	}
	for i, d := range m.GPUs {
		out[i] = float64(d.BusyTime()) / window
	}
	return out
}
