package bench

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The parallel data-work offload (sim.ParallelGroup) must be unobservable in
// every simulation result: same seed, -parallel 1 vs -parallel 8, identical
// outputs bit for bit. These property tests run serving and a fleet at both
// settings and compare complete reports (training is TestTrainPinned's
// paper-parallel-8 row). Run them under -race to also catch unsynchronised
// sharing between offloaded units.

func TestParallelDeterminismServe(t *testing.T) {
	run := func(par int) *serve.Report {
		td := prepared("products", 4, 16, false, true)
		cfg := serveConfig(td, serve.BatchDynamic, 4000)
		cfg.Parallel = par
		rep, err := serve.Serve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serve report differs between -parallel 1 and -parallel 8:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestParallelDeterminismFleet(t *testing.T) {
	run := func(par int) *fleet.Report {
		td := prepared("products", 2, 16, false, true)
		r, err := fleet.NewRouter(fleet.Config{
			Serve: serve.Config{
				Data:       td,
				Seed:       2023,
				Duration:   0.3,
				Rate:       3000,
				Skew:       0.8,
				UseCCC:     true,
				SLO:        20e-3,
				QueueDepth: 256,
				Parallel:   par,
			},
			Fleets: 2,
			Policy: fleet.LeastLoaded,
			Faults: []fault.FleetFault{{
				Fleet: 0,
				Fault: fault.Fault{Kind: fault.Stall, GPU: 0, At: sim.Time(0.1), Duration: 60e-3},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("fleet report differs between -parallel 1 and -parallel 8:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
