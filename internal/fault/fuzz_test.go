package fault

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec feeds arbitrary -faults strings to both schedule parsers,
// ParseSpec (one machine) and ParseFleetSpec (a routed fleet), at a GPU and
// fleet count drawn from the input. Seeded with the schedules the dsptrain
// and dspserve doc comments show, plus two that once failed to round-trip (a
// 9 ms duration written in seconds, and a time %g writes with an exponent). A
// bad spec is an error, never a panic, and a schedule that parses renders
// (FormatSpec, FleetFault.String) to a spec that parses back to the same
// schedule.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"crash@gpu2:t=1.5",
		"stall@gpu0:t=0.8+50ms,degrade@gpu1-gpu2:t=0.3+20ms:x4",
		"crash@gpu2:t=0.2",
		"linkdown@gpu0-gpu1:t=0.1+50ms,stall@gpu3:t=0.3+20ms",
		"crash@fleet1:t=0.2",
		"crash@fleet1:t=0.05,stall@fleet0/gpu1:t=0.1+50ms",
		"stall@gpu0:t=0+0.009s",
		"crash@gpu0:t=1e21",
		"crash@fleet0:t=2e21",
	} {
		f.Add(spec, uint8(4))
	}
	f.Fuzz(func(t *testing.T, spec string, n uint8) {
		size := int(n%9) + 1
		if fs, err := ParseSpec(spec, size); err == nil {
			back, err := ParseSpec(FormatSpec(fs), size)
			if err != nil {
				t.Fatalf("ParseSpec(%q) = %v renders to %q, which does not parse: %v", spec, fs, FormatSpec(fs), err)
			}
			if !reflect.DeepEqual(back, fs) {
				t.Fatalf("ParseSpec(%q) = %+v, but its rendering %q parses to %+v", spec, fs, FormatSpec(fs), back)
			}
		}
		if ffs, err := ParseFleetSpec(spec, size, size); err == nil {
			parts := make([]string, len(ffs))
			for i, ff := range ffs {
				parts[i] = ff.String()
			}
			rendered := strings.Join(parts, ",")
			back, err := ParseFleetSpec(rendered, size, size)
			if err != nil {
				t.Fatalf("ParseFleetSpec(%q) renders to %q, which does not parse: %v", spec, rendered, err)
			}
			if !reflect.DeepEqual(back, ffs) {
				t.Fatalf("ParseFleetSpec(%q) = %+v, but its rendering %q parses to %+v", spec, ffs, rendered, back)
			}
		}
	})
}
