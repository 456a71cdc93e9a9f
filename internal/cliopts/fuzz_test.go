package cliopts

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"repro/internal/fleet"
)

// FuzzAutoscale hardens the -autoscale parser through a flag set, as the CLI
// reaches it: every value is an error, the disabled zero value, or bounds
// with 1 <= Min <= Max <= maxFleets, never a panic; and accepted bounds
// rendered as 'min:max' parse back to themselves.
func FuzzAutoscale(f *testing.F) {
	for _, s := range []string{"", "1:3", " 2:2 ", "1:64", "0:1", "3:2", "1:65", "1:100000", "a:b", "1:", ":", "+1:+2", "-0:1", "1:3:5", "01:002"} {
		f.Add(s)
	}
	parse := func(t *testing.T, s string) (fleet.Autoscale, error) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fl := RegisterFleet(fs)
		if err := fs.Parse([]string{"-autoscale", s}); err != nil {
			t.Fatalf("a string flag refused %q: %v", s, err)
		}
		fl.FleetMode()
		return fl.Autoscale()
	}
	f.Fuzz(func(t *testing.T, s string) {
		as, err := parse(t, s)
		switch {
		case err != nil:
			return
		case as == fleet.Autoscale{}:
			return // disabled
		case as.Min < 1 || as.Max < as.Min || as.Max > maxFleets:
			t.Fatalf("-autoscale %q accepted bounds %+v", s, as)
		}
		back, err := parse(t, fmt.Sprintf("%d:%d", as.Min, as.Max))
		if err != nil || back != as {
			t.Fatalf("-autoscale %q = %+v, which renders and parses again to %+v, %v", s, as, back, err)
		}
	})
}
