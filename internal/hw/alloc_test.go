package hw

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

type deviceOp func(m *Machine, p *sim.Proc, gpu, j int)

// spawnOps starts one process per GPU, each calling op per times.
func spawnOps(m *Machine, per int, op deviceOp) {
	for g := range m.GPUs {
		m.Eng.Go("p", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				op(m, p, g, j)
			}
		})
	}
}

// warmMachine returns a 4-GPU machine with no tracer attached, after a short
// run of op that sizes the engine's queues.
func warmMachine(tb testing.TB, op deviceOp) *Machine {
	tb.Helper()
	m := NewMachine(4, V100(), XeonE5())
	spawnOps(m, 16, op)
	mustRun(tb, m)
	return m
}

func mustRun(tb testing.TB, m *Machine) {
	tb.Helper()
	if _, err := m.Eng.Run(); err != nil {
		tb.Fatal(err)
	}
}

func kernelOp(m *Machine, p *sim.Proc, gpu, j int) {
	m.GPUs[gpu].RunKernel(p, KernelSample, int64(1000+j%7))
}

func transferOp(m *Machine, p *sim.Proc, gpu, j int) {
	m.GPUs[gpu].Transfer(p, m.Fabric, (gpu+1+j%3)%4, 4096, TrafficFeature)
}

// TestDeviceOpsAllocateNothingUntraced: with a nil tracer a kernel or an
// NVLink transfer builds no span name and no args map, and its parks are
// allocation-free (sim.TestParkAllocations), so the whole operation is.
func TestDeviceOpsAllocateNothingUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const per = 1000
	for name, op := range map[string]deviceOp{"RunKernel": kernelOp, "Transfer": transferOp} {
		m := warmMachine(t, op)
		spawnOps(m, per, op)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(t, m)
		runtime.ReadMemStats(&after)
		if got := float64(after.Mallocs-before.Mallocs) / float64(per*len(m.GPUs)); got > 0.01 {
			t.Errorf("%s: %.3f allocations per call with a nil tracer, want 0", name, got)
		}
	}
}

func BenchmarkTransferNilTracer(b *testing.B) {
	m := warmMachine(b, transferOp)
	per := b.N/len(m.GPUs) + 1
	spawnOps(m, per, transferOp)
	b.ReportAllocs()
	b.ResetTimer()
	mustRun(b, m)
	b.ReportMetric(float64(per*len(m.GPUs))/b.Elapsed().Seconds(), "transfers/s")
}
