package cache

import "testing"

// FuzzParsePolicy hardens the -cache parser: every spelling is an error or
// one of the three policies, never a panic, and an accepted policy's name
// parses back to it.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"", "static", "lfu", "lfu-decay", "hybrid", "degree-hybrid", "LFU", " lfu", "unknown"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		if p != Static && p != LFUDecay && p != DegreeHybrid {
			t.Fatalf("ParsePolicy(%q) accepted policy %d", s, p)
		}
		if q, err := ParsePolicy(p.String()); err != nil || q != p {
			t.Fatalf("ParsePolicy(%q) = %v, whose name parses to %v, %v", s, p, q, err)
		}
	})
}
