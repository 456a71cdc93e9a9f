package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesRegistry holds BENCHMARK.json and the code's registry to
// the same workloads and metrics, and both to the contract's limits.
func TestManifestMatchesRegistry(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n manifest %+v\n registry %+v", m.Workloads, workloadDefs)
	}
	if len(m.EndToEnd) != len(endToEndDefs) || len(m.PerLayer) != len(perLayerDefs) {
		t.Fatalf("manifest lists %d end-to-end and %d per-layer metrics, registry %d and %d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	seen := map[string]bool{}
	use := func(name, unit string) {
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed alphabet or length", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is outside the allowed alphabet or length", name, unit)
		}
	}
	for _, w := range m.Workloads {
		use(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("workload %s has no pinned configuration", w.Name)
		}
	}
	setup := false
	for i, e := range m.EndToEnd {
		d := endToEndDefs[i]
		use(e.Name, e.Unit)
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, registry %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, p := range m.PerLayer {
		d := perLayerDefs[i]
		use(p.Name, p.Unit)
		if p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, registry %+v", i, p, d)
		}
		for _, w := range d.On {
			if _, ok := specs[w]; !ok {
				t.Errorf("%s applies to unknown workload %q", d.Name, w)
			}
		}
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d per-layer, %d end-to-end", len(m.PerLayer), len(m.EndToEnd))
	}
}

// TestTinySmoke runs every workload untraced and traced at the tiny scale and
// checks the result objects: every declared metric present once, nothing
// undeclared, all finite, the applicable ones measured, all checks passing.
func TestTinySmoke(t *testing.T) {
	dir := t.TempDir()
	for _, wd := range workloadDefs {
		for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			rep, err := measureWorkload(options{workload: wd.Name, seed: 2023, seconds: 0, trace: trace, outDir: dir}, tinyScale)
			if err != nil {
				t.Fatalf("%s trace %d: %v", wd.Name, trace, err)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("%s trace %d: check %q failed: %s", wd.Name, trace, c.Name, c.Msg)
				}
			}
			r := rep.Result
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d", wd.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", wd.Name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s not emitted", wd.Name, trace, d.Name)
				case mv.Unit != d.Unit:
					t.Errorf("%s: unit %q, declared %q", d.Name, mv.Unit, d.Unit)
				case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("%s trace %d: %s = %v", wd.Name, trace, d.Name, mv.Value)
				case trace == 0 && mv.Value == 0:
					t.Errorf("%s: end-to-end %s is 0", wd.Name, d.Name)
				case !d.appliesTo(wd.Name) && mv.Value != 0:
					t.Errorf("%s: %s does not apply but is %v", wd.Name, d.Name, mv.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(rep.SpansFile); err != nil {
					t.Errorf("%s: spans file: %v", wd.Name, err)
				}
				sum := 0.0
				for _, name := range []string{"share.sample", "share.featstore", "share.compress", "share.graph_decode", "share.nn", "share.des_overhead"} {
					sum += r.Metrics[name].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: share.* sum to %v", wd.Name, sum)
				}
			}
		}
	}
}
