package cliopts

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
)

func newSet(t *testing.T, grad bool, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	if grad {
		c.RegisterGrad(fs)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return c
}

func TestDefaults(t *testing.T) {
	c := newSet(t, true)
	if faults, err := c.FaultSchedule(4); err != nil || len(faults) != 0 {
		t.Fatalf("default faults = %v, %v", faults, err)
	}
	if pol, err := c.Policy(); err != nil || pol != cache.Static {
		t.Fatalf("default policy = %v, %v", pol, err)
	}
	if c.CacheBudget != 0 {
		t.Fatalf("default budget = %d", c.CacheBudget)
	}
	for name, f := range map[string]func(uint64) (any, error){
		"feat": func(s uint64) (any, error) { return c.FeatCodec(s) },
		"grad": func(s uint64) (any, error) { return c.GradCodec(s) },
	} {
		v, err := f(1)
		if err != nil {
			t.Fatalf("default %s codec: %v", name, err)
		}
		if v != nil {
			if cd, ok := v.(interface{ Name() string }); ok && cd != nil {
				// compress.Codec(nil) boxed in any is non-nil only if typed;
				// Parse("") returns untyped nil, so this is a failure.
				t.Fatalf("default %s codec = %v, want nil", name, cd)
			}
		}
	}
}

func TestParsesSharedFlags(t *testing.T) {
	c := newSet(t, true,
		"-faults", "crash@gpu1:t=0.5",
		"-cache", "lfu",
		"-cache-budget", "1048576",
		"-compress-feat", "fp16",
		"-compress-grad", "int8",
	)
	faults, err := c.FaultSchedule(4)
	if err != nil || len(faults) != 1 || faults[0].Kind != fault.Crash || faults[0].GPU != 1 {
		t.Fatalf("faults = %+v, %v", faults, err)
	}
	if pol, _ := c.Policy(); pol != cache.LFUDecay {
		t.Fatalf("policy = %v", pol)
	}
	if c.CacheBudget != 1<<20 {
		t.Fatalf("budget = %d", c.CacheBudget)
	}
	fc, err := c.FeatCodec(1)
	if err != nil || fc == nil || fc.Name() != "fp16" {
		t.Fatalf("feat codec = %v, %v", fc, err)
	}
	gc, err := c.GradCodec(1)
	if err != nil || gc == nil || gc.Name() != "int8" {
		t.Fatalf("grad codec = %v, %v", gc, err)
	}
}

func TestGradCodecWithoutRegisterGrad(t *testing.T) {
	c := newSet(t, false)
	gc, err := c.GradCodec(1)
	if err != nil || gc != nil {
		t.Fatalf("grad codec without RegisterGrad = %v, %v; want nil, nil", gc, err)
	}
}

func TestBadSpecsError(t *testing.T) {
	c := newSet(t, true,
		"-faults", "explode@gpu9",
		"-cache", "mru",
		"-compress-feat", "zstd",
		"-compress-grad", "topk:2",
	)
	if _, err := c.FaultSchedule(4); err == nil {
		t.Error("bad fault spec accepted")
	}
	if _, err := c.Policy(); err == nil {
		t.Error("bad cache policy accepted")
	}
	if _, err := c.FeatCodec(1); err == nil {
		t.Error("bad feat codec accepted")
	}
	if _, err := c.GradCodec(1); err == nil {
		t.Error("bad grad codec accepted")
	}
}

// TestNonFiniteSpecsNamed: a non-finite spec value is an error naming its
// flag before any run, with telemetry on or off. NaN used to pass every
// comparison and fail only when the finished report was encoded.
func TestNonFiniteSpecsNamed(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
		err  func(*Common, *Telemetry, *Fleet) error
	}{
		{[]string{"-telemetry-interval", "NaN"}, "-telemetry-interval", hubErr},
		{[]string{"-telemetry", "-telemetry-interval", "Inf"}, "-telemetry-interval", hubErr},
		{[]string{"-slo-target", "NaN"}, "-slo-target", hubErr},
		{[]string{"-compress-feat", "topk:nan"}, "-compress-feat", func(c *Common, _ *Telemetry, _ *Fleet) error {
			_, err := c.FeatCodec(1)
			return err
		}},
		{[]string{"-compress-grad", "topk:NaN"}, "-compress-grad", func(c *Common, _ *Telemetry, _ *Fleet) error {
			_, err := c.GradCodec(1)
			return err
		}},
		{[]string{"-tenants", "a:Inf,b:1"}, "-tenants", func(_ *Common, _ *Telemetry, f *Fleet) error {
			_, err := f.Tenants()
			return err
		}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c := Register(fs)
		c.RegisterGrad(fs)
		tel, fl := RegisterTelemetry(fs), RegisterFleet(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if err := tc.err(c, tel, fl); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}

func hubErr(_ *Common, tel *Telemetry, _ *Fleet) error {
	_, err := tel.Hub(0)
	return err
}

// TestFleetCountsNamed: a fleet count below one or above maxFleets is an
// error naming its flag. -fleets 0 used to run stand-alone, and every fleet up
// to an -autoscale maximum of 100000 was built before the run.
func TestFleetCountsNamed(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-fleets", "64", "-autoscale", "1:64"}, ""},
		{[]string{"-fleets", "0"}, "-fleets"},
		{[]string{"-fleets", "-2"}, "-fleets"},
		{[]string{"-fleets", "65"}, "-fleets"},
		{[]string{"-fleets", "100000"}, "-fleets"},
		{[]string{"-autoscale", "1:65"}, "-autoscale"},
		{[]string{"-autoscale", "1:100000"}, "-autoscale"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := RegisterFleet(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, err := f.N()
		if err == nil {
			_, err = f.Autoscale()
		}
		if tc.flag == "" {
			if err != nil {
				t.Errorf("%v: %v", tc.args, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}
