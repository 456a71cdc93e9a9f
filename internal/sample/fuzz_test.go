package sample

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzDeduper holds the mark-table block builder to the map-based BuildBlock
// on arbitrary (dst, counts, samples): Deduper.BuildBlock, and Build in
// place — the samples written into SrcFor's storage of a block that already
// holds another batch's arrays — must both equal it by reflect.DeepEqual,
// nil-ness included. Ids are drawn from few values, 0 and
// numNodes−1 among them, so most samples repeat a dst or an earlier sample.
//
//	go test ./internal/sample/ -run '^$' -fuzz FuzzDeduper -fuzztime 30s
func FuzzDeduper(f *testing.F) {
	f.Add(uint16(10), uint8(3), []byte{0, 1, 2, 5, 9, 1, 0, 0xf0, 4, 4, 0xf0, 0xf0, 1, 7})
	f.Add(uint16(1), uint8(1), []byte{0, 0, 1, 2, 3})
	f.Add(uint16(500), uint8(0), []byte{1, 2, 3})
	f.Add(uint16(300), uint8(40), []byte{})
	f.Fuzz(func(t *testing.T, nodes uint16, nDst uint8, data []byte) {
		numNodes := 1 + int(nodes)%1024
		id := func(b byte) graph.NodeID {
			switch b % 4 {
			case 0:
				return 0
			case 1:
				return graph.NodeID(numNodes - 1)
			}
			return graph.NodeID((int(b>>2)*37 + int(nodes)) % numNodes)
		}
		// dst: the first nDst bytes' ids, first occurrences only (a block's
		// destinations are unique).
		var dst []graph.NodeID
		seen := make(map[graph.NodeID]bool)
		k := min(int(nDst), len(data))
		for _, b := range data[:k] {
			if v := id(b); !seen[v] {
				seen[v] = true
				dst = append(dst, v)
			}
		}
		// The rest are samples of dst[cur]; a byte >= 0xf0 moves on to the
		// next destination, so counts of zero occur.
		counts := make([]int32, len(dst))
		var samples []graph.NodeID
		cur := 0
		for _, b := range data[k:] {
			if len(dst) == 0 {
				break
			}
			if b >= 0xf0 {
				cur = min(cur+1, len(dst)-1)
				continue
			}
			samples = append(samples, id(b))
			counts[cur]++
		}
		want := BuildBlock(dst, counts, samples)
		d := NewDeduper(numNodes)
		// Twice on one deduper: the mark table must come back clean.
		for range 2 {
			if got := d.BuildBlock(dst, counts, samples); !reflect.DeepEqual(got, want) {
				t.Fatalf("BuildBlock:\n got %+v\nwant %+v", got, want)
			}
		}
		// Build in place in one block again and again: from a new block,
		// into the arrays of a batch twice as large, and back.
		double := make([]int32, len(counts))
		for i, c := range counts {
			double[i] = 2 * c
		}
		twice := append(slices.Clone(samples), samples...)
		b := new(Block)
		for _, in := range []struct {
			counts  []int32
			samples []graph.NodeID
		}{{counts, samples}, {double, twice}, {counts, samples}} {
			copy(b.SrcFor(len(in.samples)), in.samples)
			d.Build(b, dst, in.counts)
			if want := BuildBlock(dst, in.counts, in.samples); !reflect.DeepEqual(b, want) {
				t.Fatalf("Build in place of %d samples:\n got %+v\nwant %+v", len(in.samples), b, want)
			}
		}
	})
}
