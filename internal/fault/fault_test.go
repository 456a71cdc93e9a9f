package fault

import (
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "crash@gpu2:t=1.5,stall@gpu0:t=0.8+50ms,linkdown@gpu0-gpu1:t=0.5+10ms,degrade@gpu1-gpu2:t=0.3+20ms:x4"
	fs, err := ParseSpec(spec, 4)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(fs) != 4 {
		t.Fatalf("parsed %d faults, want 4", len(fs))
	}
	want := []Fault{
		{Kind: Crash, GPU: 2, At: 1.5},
		{Kind: Stall, GPU: 0, At: 0.8, Duration: 0.05},
		{Kind: LinkDown, GPU: 0, Peer: 1, At: 0.5, Duration: 0.01},
		{Kind: LinkDegrade, GPU: 1, Peer: 2, At: 0.3, Duration: 0.02, Factor: 4},
	}
	for i, f := range fs {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
	back, err := ParseSpec(FormatSpec(fs), 4)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	for i := range fs {
		if back[i] != fs[i] {
			t.Errorf("round trip fault %d = %+v, want %+v", i, back[i], fs[i])
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"crash@gpu9:t=1",                 // out of range
		"melt@gpu0:t=1",                  // unknown kind
		"crash@gpu0",                     // missing time
		"crash@gpu0:t=-1",                // negative time
		"crash@gpu0:t=1+5ms",             // crash with duration
		"stall@gpu0:t=1",                 // stall without duration
		"linkdown@gpu0:t=1+5ms",          // link fault without pair
		"degrade@gpu0-gpu0:t=1+5s",       // same endpoints
		"degrade@gpu0-gpu1:t=1+5ms:x0.5", // factor <= 1
		"crash@gpu0:t=NaN",               // not a time
		"crash@gpu0:t=inf",               // never
		"stall@gpu0:t=1+NaNms",           // not a duration
		"degrade@gpu0-gpu1:t=1+5ms:xInf", // no bandwidth left
	}
	for _, s := range bad {
		if _, err := ParseSpec(s, 4); err == nil {
			t.Errorf("ParseSpec(%q) = nil error, want failure", s)
		}
	}
	if fs, err := ParseSpec("  ", 4); err != nil || fs != nil {
		t.Errorf("blank spec: got %v, %v; want nil, nil", fs, err)
	}
}

func TestViewMembership(t *testing.T) {
	v := NewView(4)
	if v.LiveCount() != 4 || v.LowestLive() != 0 || v.Gen() != 0 {
		t.Fatalf("fresh view wrong: %+v", v)
	}
	changes := 0
	v.OnChange(func() { changes++ })
	v.Kill(0)
	v.Kill(0) // no-op
	if v.Gen() != 1 || changes != 1 {
		t.Fatalf("gen=%d changes=%d after one death, want 1/1", v.Gen(), changes)
	}
	if v.LowestLive() != 1 {
		t.Fatalf("leader after gpu0 death = %d, want 1", v.LowestLive())
	}
	v.Kill(2)
	if got := v.NextLive(1); got != 3 {
		t.Fatalf("NextLive(1) = %d, want 3 (gpu2 dead)", got)
	}
	if got := v.NextLive(3); got != 1 {
		t.Fatalf("NextLive(3) = %d, want 1 (wraps past dead gpu0)", got)
	}
	if d := v.Dead(); len(d) != 2 || d[0] != 0 || d[1] != 2 {
		t.Fatalf("Dead() = %v, want [0 2]", d)
	}
}

func TestCrashInterruptsEngine(t *testing.T) {
	m := hw.NewMachine(4, hw.V100(), hw.XeonE5())
	inj, err := NewInjector(m, []Fault{{Kind: Crash, GPU: 2, At: 0.5}})
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	for g := 0; g < 4; g++ {
		m.Eng.Go("worker", func(p *sim.Proc) { p.Sleep(2) })
	}
	inj.Arm()
	end, err := m.Eng.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CrashError", err)
	}
	if ce.GPU != 2 || ce.At != 0.5 || end != 0.5 {
		t.Fatalf("crash = %+v at end %g, want gpu2 t=0.5", ce, float64(end))
	}
	if inj.View().Alive(2) || inj.View().LiveCount() != 3 {
		t.Fatalf("view not updated: dead %v", inj.View().Dead())
	}
}

func TestStallDelaysKernels(t *testing.T) {
	run := func(withStall bool) sim.Time {
		m := hw.NewMachine(2, hw.V100(), hw.XeonE5())
		var faults []Fault
		if withStall {
			faults = []Fault{{Kind: Stall, GPU: 0, At: 0.001, Duration: 0.05}}
		}
		inj, err := NewInjector(m, faults)
		if err != nil {
			t.Fatalf("injector: %v", err)
		}
		m.Eng.Go("gpu0", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				m.GPUs[0].RunKernel(p, hw.KernelSample, 1<<20)
			}
		})
		inj.Arm()
		end, err := m.Eng.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return end
	}
	healthy, stalled := run(false), run(true)
	if stalled < healthy+0.045 {
		t.Fatalf("stall did not delay work: healthy end %g, stalled end %g", float64(healthy), float64(stalled))
	}
}

func TestLinkDegradeSlowsTransfer(t *testing.T) {
	run := func(factor float64) sim.Time {
		m := hw.NewMachine(4, hw.V100(), hw.XeonE5())
		var faults []Fault
		if factor > 1 {
			faults = []Fault{{Kind: LinkDegrade, GPU: 0, Peer: 1, At: 0, Duration: 10, Factor: factor}}
		}
		inj, err := NewInjector(m, faults)
		if err != nil {
			t.Fatalf("injector: %v", err)
		}
		m.Eng.Go("xfer", func(p *sim.Proc) {
			p.Sleep(1e-4) // let the injector apply the degrade first
			m.Fabric.Transfer(p, 0, 1, 64<<20, hw.TrafficFeature)
		})
		inj.Arm()
		end, err := m.Eng.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return end
	}
	healthy, degraded := run(0), run(4)
	if degraded < healthy*2 {
		t.Fatalf("x4 degrade barely slowed the transfer: healthy %g, degraded %g", float64(healthy), float64(degraded))
	}
}

func TestInjectorSkipsFaultsBeforeBase(t *testing.T) {
	m := hw.NewMachine(2, hw.V100(), hw.XeonE5())
	inj, err := NewInjector(m, []Fault{
		{Kind: Crash, GPU: 1, At: 0.5},
		{Kind: Crash, GPU: 0, At: 5.0},
	})
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	inj.Base = 1.0 // the gpu1 crash happened on a previous incarnation
	m.Eng.Go("work", func(p *sim.Proc) { p.Sleep(1) })
	inj.Arm()
	end, err := m.Eng.Run()
	if err != nil {
		t.Fatalf("run: %v (the skipped crash must not fire)", err)
	}
	if end != 1 {
		t.Fatalf("end = %g, want 1", float64(end))
	}
	if len(inj.Applied()) != 0 {
		t.Fatalf("applied %d faults, want 0", len(inj.Applied()))
	}
}

func TestRandomScheduleDeterministicAndBounded(t *testing.T) {
	a := RandomSchedule(7, 4, 1.0, 8, 16, 0.01)
	b := RandomSchedule(7, 4, 1.0, 8, 16, 0.01)
	if len(a) == 0 {
		t.Fatalf("high-rate schedule produced no faults")
	}
	if len(a) != len(b) {
		t.Fatalf("same-seed schedules differ in length: %d vs %d", len(a), len(b))
	}
	crashes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed schedules differ at %d: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if a[i].Kind == Crash {
			crashes++
		}
	}
	if crashes > 3 {
		t.Fatalf("%d crashes on a 4-GPU fleet; at least one GPU must survive", crashes)
	}
	c := RandomSchedule(8, 4, 1.0, 8, 16, 0.01)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical schedules")
	}
}
