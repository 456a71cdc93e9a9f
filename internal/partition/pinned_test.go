package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
)

// partsHash is an FNV-64a over the little-endian uint32 of each Parts entry:
// one number that moves if any node changes part.
func partsHash(parts []int32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMetisPinned holds Metis to the partitions the sort-based partitioner
// (reference_test.go) produced when the hashes were recorded. Parts feeds the
// renumbering and through it every virtual-time number of every report, so a
// moved hash means every report moves.
func TestMetisPinned(t *testing.T) {
	type pin struct {
		dataset string
		shrink  int
		k       int
		seed    uint64
		want    string
	}
	pins := []pin{
		{"products", 16, 4, 13, "feb2653278a66c55"},
		{"products", 16, 4, 2023, "f7eab07f607d9794"},
		{"papers", 16, 8, 13, "284fa8dbe41e7fe0"},
		{"papers", 16, 8, 2023, "91c1db30cf419ba3"},
	}
	if !testing.Short() {
		// The three graphs the benchmark workloads partition, at its seed.
		pins = append(pins,
			pin{"products", 2, 4, 2023, "6ced48594577c1a6"},
			pin{"products", 1, 4, 2023, "8da8667e0b05e005"},
			pin{"papers", 2, 8, 2023, "cb73d8b9d0454fe4"},
		)
	}
	for _, p := range pins {
		d := gen.Generate(gen.StandardDataset(p.dataset, p.shrink).Config)
		res := Metis(d.G, p.k, p.seed)
		if err := res.Validate(d.G.NumNodes()); err != nil {
			t.Fatal(err)
		}
		if got := partsHash(res.Parts); got != p.want {
			t.Errorf("%s/%d k=%d seed=%d: Parts hash %s, want %s", p.dataset, p.shrink, p.k, p.seed, got, p.want)
		}
	}
}
