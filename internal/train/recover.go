package train

import (
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Recoverable is a System that additionally supports partial-epoch execution
// and checkpoint/restore — what the fault-tolerant driver needs. DSP's
// training recovery follows the fail-stop restart model: a GPU crash kills
// the whole BSP job, the fleet is rebuilt at full width, state is restored
// from the last checkpoint and the lost steps replay. Because every batch
// permutation and sampling seed is a pure function of (runSeed, epoch, step,
// rank), the replayed steps reproduce the lost ones bit for bit.
type Recoverable interface {
	System
	// RunEpochRange executes steps [from, to) of one epoch.
	RunEpochRange(epoch, from, to int) (EpochStats, error)
	// Steps returns the schedule's steps per epoch.
	Steps() int
	// Snapshot captures a consistent checkpoint whose cursor says the next
	// batch to run is (epoch, step). Safe only between steps (BSP keeps all
	// replicas identical there).
	Snapshot(epoch, step int) *ckpt.TrainState
	// Restore installs a checkpoint into every model replica and optimizer.
	Restore(st *ckpt.TrainState) error
	// ArmFaults arms the configured fault schedule on this incarnation of the
	// fleet, whose t=0 is global virtual time base (a no-op without faults):
	// faults at or before a non-zero base were delivered to a previous
	// incarnation and are skipped.
	ArmFaults(base sim.Time)
}

// RecoveryStats records one crash-recovery cycle.
type RecoveryStats struct {
	// GPU is the crashed GPU; CrashAt the global virtual time of the crash.
	GPU     int
	CrashAt sim.Time
	// RestoreTime is the virtual cost of reading the checkpoint back in.
	RestoreTime sim.Time
	// ReplaySteps counts the steps of lost work re-executed.
	ReplaySteps int
	// MTTR is the mean-time-to-repair contribution of this crash: failure
	// detection (immediate under fail-stop), restore, and replay of the
	// virtual time lost between the last checkpoint and the crash.
	MTTR sim.Time
}

// FTReport is the outcome of a fault-tolerant training run.
type FTReport struct {
	Epochs     []EpochStats
	Recoveries []RecoveryStats
	Ckpt       ckpt.Stats
	// TotalTime is the global virtual time of the whole run, across fleet
	// incarnations, including checkpoint writes and recovery.
	TotalTime sim.Time
}

// MTTR returns the mean time to repair across all recoveries (0 if none).
func (r *FTReport) MTTR() sim.Time {
	if len(r.Recoveries) == 0 {
		return 0
	}
	var t sim.Time
	for _, rec := range r.Recoveries {
		t += rec.MTTR
	}
	return t / sim.Time(len(r.Recoveries))
}

// maxRecoveries bounds restart attempts so a fault schedule that crashes the
// fleet faster than it can replay terminates with an error instead of looping.
const maxRecoveries = 64

// RunRecoverable drives epochs epochs of sys under the checkpoint manager,
// recovering from injected GPU crashes by rebuilding the fleet (rebuild must
// return a fresh system with identical options and seed) and replaying from
// the last checkpoint. Two same-seed invocations — and a crash-free run with
// the same checkpoint cadence — produce bit-identical model parameters and
// epoch Loss/Correct/Seen.
func RunRecoverable(sys Recoverable, epochs int, mgr *ckpt.Manager, rebuild func() (Recoverable, error)) (*FTReport, error) {
	steps := sys.Steps()
	rep := &FTReport{}
	var base sim.Time // global virtual time of the current fleet's t=0
	sys.ArmFaults(base)
	topo := sys.Machine().Fabric.Topo

	// Commit the initial state so the first segment is covered.
	if err := mgr.Commit(sys.Snapshot(0, 0), 0); err != nil {
		return nil, err
	}

	// cur folds the committed segments of the epoch in progress, in segment
	// order — identical between a crash-free run and a crashed-and-replayed
	// one at the same cadence, which keeps epoch Loss sums bit-identical. A
	// crash truncates nothing (only committed segments are in it) and replay
	// adds the re-run segment exactly once. Each segment carries its full
	// counter delta, so the epoch's counters span every fleet incarnation.
	var cur EpochStats
	epoch, from := 0, 0
	for epoch < epochs {
		segStart := sys.Machine().Eng.Now()
		to := mgr.SegmentEnd(from, steps)
		st, err := sys.RunEpochRange(epoch, from, to)
		if err == nil {
			// Capture state, charge the write, then commit — a crash between
			// capture and commit recovers from the PREVIOUS checkpoint, like
			// a real system whose in-flight checkpoint write is torn.
			nextEp, nextStep := epoch, to
			if to >= steps {
				nextEp, nextStep = epoch+1, 0
			}
			snap := sys.Snapshot(nextEp, nextStep)
			dur := ckpt.WriteCost(snap.Bytes(), topo.PCIeBandwidth, topo.PCIeLatency)
			err = chargeTime(sys, dur)
			if err == nil {
				if cerr := mgr.Commit(snap, dur); cerr != nil {
					return nil, cerr
				}
				cur.Add(st)
				from = to
				if from >= steps {
					cur.Epoch = epoch
					rep.Epochs = append(rep.Epochs, cur)
					cur = EpochStats{}
					epoch, from = epoch+1, 0
				}
				continue
			}
		}
		var crash *fault.CrashError
		if !errors.As(err, &crash) {
			return nil, err
		}
		if len(rep.Recoveries) >= maxRecoveries {
			return nil, fmt.Errorf("train: gave up after %d recoveries (fault schedule outruns replay)", maxRecoveries)
		}
		// Fail-stop recovery: fold the dead fleet's clock into the global
		// base, rebuild at full width, restore the last checkpoint and rerun
		// the segment. Faults already delivered stay in the past (the
		// injector skips entries before Base).
		crashLocal := sys.Machine().Eng.Now()
		base += crashLocal
		last := mgr.Last()
		fresh, rerr := rebuild()
		if rerr != nil {
			return nil, fmt.Errorf("train: rebuild after crash: %w", rerr)
		}
		sys = fresh
		topo = sys.Machine().Fabric.Topo
		sys.ArmFaults(base)
		if err := sys.Restore(last); err != nil {
			return nil, fmt.Errorf("train: restore checkpoint: %w", err)
		}
		restore := ckpt.WriteCost(last.Bytes(), topo.PCIeBandwidth, topo.PCIeLatency)
		if err := chargeTime(sys, restore); err != nil {
			return nil, err
		}
		lost := crashLocal - segStart // virtual work time lost to the crash
		rep.Recoveries = append(rep.Recoveries, RecoveryStats{
			GPU: crash.GPU, CrashAt: base,
			RestoreTime: restore,
			ReplaySteps: to - last.Step,
			MTTR:        restore + lost,
		})
		// Resume at the checkpoint cursor. The cursor never moves backwards
		// across an epoch boundary mid-epoch (epoch ends always commit), so
		// the committed segments folded into cur remain valid.
		epoch, from = last.Epoch, last.Step
	}
	rep.Ckpt = mgr.Stats()
	rep.TotalTime = base + sys.Machine().Eng.Now()
	return rep, nil
}

// chargeTime advances the fleet's virtual clock by dur (checkpoint I/O). The
// fault injector keeps running, so a crash scheduled inside the window still
// fires — returned as the engine error.
func chargeTime(sys Recoverable, dur sim.Time) error {
	if dur <= 0 {
		return nil
	}
	eng := sys.Machine().Eng
	eng.Go("ckpt/io", func(p *sim.Proc) { p.Sleep(dur) })
	_, err := eng.Run()
	return err
}
