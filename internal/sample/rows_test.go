package sample

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// rowCase is one row of a Rows test: its adjacency, node id, fan-out and
// the requester's layer seed.
type rowCase struct {
	adj       []graph.NodeID
	v         graph.NodeID
	k         int
	layerSeed uint64
}

// checkRows queues rows through one Rows, flushing after every group of
// group rows, and holds each row's count and ids to DrawAdj's.
func checkRows(t *testing.T, rows []rowCase, group int) {
	t.Helper()
	var r Rows
	outs := make([][]graph.NodeID, len(rows))
	counts := make([]int, len(rows))
	for i, c := range rows {
		outs[i] = make([]graph.NodeID, c.k)
		counts[i] = r.Add(c.adj, c.v, c.layerSeed, c.k, outs[i])
		if (i+1)%group == 0 {
			r.Flush()
		}
	}
	r.Flush()
	for i, c := range rows {
		want := DrawAdj(c.adj, nil, c.v, c.layerSeed, c.k, Config{}, nil, nil)
		if got := outs[i][:counts[i]]; !slices.Equal(got, want) {
			t.Fatalf("row %d (d=%d, k=%d, v=%d): got %v, want %v", i, len(c.adj), c.k, c.v, got, want)
		}
	}
}

// TestRowsMatchDrawAdj holds Rows to DrawAdj over every regime a row can
// be in — d ≤ k, d = k+1, k = 0 or past maxRowK, bounds that are powers
// of two, rows full of one repeated neighbour — flushed in groups of 1 to
// 9 (a group of 9 spans two passes), with the AVX2 body and with the
// portable one.
func TestRowsMatchDrawAdj(t *testing.T) {
	gen := rng.New(7)
	var rows []rowCase
	for i := 0; i < 3000; i++ {
		k := 1 + gen.Intn(20)
		switch i % 50 {
		case 0:
			k = maxRowK + 1 + gen.Intn(4)
		case 25:
			k = 0
		}
		var d int
		switch i % 6 {
		case 0:
			d = gen.Intn(k + 2) // d ≤ k+1
		case 1:
			d = k - 1 + 1<<(1+gen.Intn(7)) // the first bound is a power of two
		default:
			d = k + 1 + gen.Intn(120)
		}
		alphabet := 1 << 20
		if i%5 == 0 {
			alphabet = 1 + gen.Intn(4) // heavy repeats
		}
		adj := make([]graph.NodeID, d)
		for j := range adj {
			adj[j] = graph.NodeID(gen.Intn(alphabet))
		}
		rows = append(rows, rowCase{adj, graph.NodeID(gen.Intn(1 << 30)), k, gen.Uint64()})
	}
	probed := useAVX2
	t.Cleanup(func() { useAVX2 = probed })
	for _, avx2 := range []bool{false, probed} {
		useAVX2 = avx2
		for group := 1; group <= rowLanes+1; group++ {
			checkRows(t, rows, group)
		}
	}
}

// TestRowsRedrawFlaggedLane drives the lazy-threshold fallback. Seven rows
// are queued and seeded, and lane 3's generator is then given s[1] = 0, so
// its first output is 0 and the product's low word, 0, falls below the
// bound 26. The kernel must flag that lane alone, and the pass must redraw
// its row with Uniform from the same state — Uniform rejects the draw and
// draws again — while the other lanes keep the kernel's picks.
func TestRowsRedrawFlaggedLane(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 body on this CPU")
	}
	const d, k, rows = 40, 15, rowLanes - 1
	adj := make([]graph.NodeID, d)
	for i := range adj {
		adj[i] = graph.NodeID(100 + i)
	}
	var r Rows
	outs := make([][]graph.NodeID, rows)
	for i := range outs {
		outs[i] = make([]graph.NodeID, k)
		r.Add(adj, graph.NodeID(i), 99, k, outs[i])
	}
	r.seed()
	r.l.s[1][3] = 0
	l := r.l // check the kernel's flags on a copy
	if redo := uniformRowsAVX2(&l, k); redo != 1<<3 {
		t.Fatalf("kernel flags lanes %08b, want lane 3 alone", redo)
	}
	r.draw()
	for i, out := range outs {
		var gen rng.RNG
		gen.Seed(rng.MixStep(99, uint64(i)))
		if i == 3 {
			gen.SetState([4]uint64{l.s[0][3], 0, l.s[2][3], l.s[3][3]})
		}
		if want := Uniform(&gen, adj, k, nil); !slices.Equal(out, want) {
			t.Fatalf("lane %d: got %v, want %v", i, out, want)
		}
	}
	// Without the redraw, lane 3 would keep the rejected draw's pick adj[0].
	if outs[3][0] == adj[0] {
		t.Fatalf("lane 3 kept the rejected draw's pick %d", adj[0])
	}
}

// TestRowsAllocateNothing: a warm Rows draws a full pass and a partial one
// without a heap object.
func TestRowsAllocateNothing(t *testing.T) {
	adj := make([]graph.NodeID, 40)
	out := make([]graph.NodeID, 15*11)
	var r Rows
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 11; i++ {
			r.Add(adj, graph.NodeID(i), 5, 15, out[15*i:])
		}
		r.Flush()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per call", allocs)
	}
}

// FuzzDrawKernel holds Rows — the AVX2 body where the CPU has it — to
// DrawAdj row by row, on ids and counts. Each row takes three bytes: its
// degree class (0–300, d = k, d = k+1, a power-of-two first bound, or
// below k), a fan-out bump (a new k flushes the group) and whether its ids
// repeat. Rows are flushed in groups of 1–8.
//
//	go test ./internal/sample/ -run '^$' -fuzz FuzzDrawKernel -fuzztime 30s
func FuzzDrawKernel(f *testing.F) {
	f.Add(uint64(1), uint8(15), uint8(8), []byte{200, 0, 0, 1, 0, 0, 2, 0, 1, 3, 0, 0, 40, 0, 0, 41, 0, 1, 77, 0, 0, 90, 0, 0, 120, 0, 0})
	f.Add(uint64(2), uint8(1), uint8(3), []byte{0, 0, 0, 1, 0, 0, 255, 0, 1, 2, 1, 0})
	f.Add(uint64(3), uint8(20), uint8(1), []byte{250, 1, 1, 2, 0, 1, 100, 2, 0})
	f.Fuzz(func(t *testing.T, seed uint64, fanout, group uint8, data []byte) {
		k := 1 + int(fanout)%20
		gen := rng.New(seed)
		var rows []rowCase
		for ; len(data) >= 3 && len(rows) < 64; data = data[3:] {
			rk := k + int(data[1])%3/2 // one row in three bumps k
			var d int
			switch c := int(data[0]); c % 8 {
			case 0:
				d = rk
			case 1:
				d = rk + 1
			case 2:
				d = rk - 1 + 1<<(1+c/8%8)
			case 3:
				d = c / 8 % (rk + 1)
			default:
				d = (c*37 + int(data[1])) % 301
			}
			alphabet := 1 << 24
			if data[2]&1 != 0 {
				alphabet = 1 + int(data[2])>>1%8
			}
			adj := make([]graph.NodeID, d)
			for j := range adj {
				adj[j] = graph.NodeID(gen.Intn(alphabet))
			}
			rows = append(rows, rowCase{adj, graph.NodeID(gen.Intn(1 << 31)), rk, gen.Uint64()})
		}
		checkRows(t, rows, 1+int(group)%rowLanes)
	})
}
