package fleet

import "testing"

// FuzzParsePolicy hardens the -router parser: every spelling is an error or
// one of the four routing policies, never a panic, and an accepted policy's
// name parses back to it.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"", "round-robin", "rr", "least-loaded", "ll", "latency-aware", "la",
		"shard-affinity", "affinity", "sa", "RR", "round robin", "x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		switch p {
		case RoundRobin, LeastLoaded, LatencyAware, ShardAffinity:
		default:
			t.Fatalf("ParsePolicy(%q) accepted policy %d", s, p)
		}
		if q, err := ParsePolicy(p.String()); err != nil || q != p {
			t.Fatalf("ParsePolicy(%q) = %v, whose name parses to %v, %v", s, p, q, err)
		}
	})
}
