package comm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
)

// zeroPayloads is the oracle AllToAllCounts is held to: AllToAll over
// zero-valued float32 payloads of the counted lengths, which is how the
// feature reply and the p3 push and pull were once exchanged.
func zeroPayloads(counts []int) [][]float32 {
	out := make([][]float32, len(counts))
	for q, n := range counts {
		out[q] = make([]float32, n)
	}
	return out
}

// exchangeOutcome is everything an all-to-all leaves that a caller or a
// report can observe.
type exchangeOutcome struct {
	end    sim.Time
	fabric hw.Counters
	comp   map[hw.TrafficClass]CompressionStats
	got    [][][]int // [rank][round]: element count received from each sender
	aborts int
}

// runCounted runs rounds all-to-alls of varied, sometimes empty, segments on
// n ranks, through AllToAllCounts (counted) or the zero-payload oracle.
// Under a fault.View (withView), a victim >= 0 is killed at killAt; an
// aborted survivor retries the round under the new view, an aborted victim
// stops.
func runCounted(t *testing.T, n, rounds, scale int, o Opts, withView bool, victim int, killAt sim.Time, counted bool) exchangeOutcome {
	t.Helper()
	m, c := newWorld(n)
	var view *fault.View
	if withView {
		view = fault.NewView(n)
		c.SetView(view)
	}
	res := exchangeOutcome{got: make([][][]int, n)}
	for r := 0; r < n; r++ {
		r := r
		m.Eng.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			for round := 0; round < rounds; round++ {
				counts := make([]int, n)
				for q := range counts {
					if (r*7+q*3+round*5)%4 != 0 {
						counts[q] = scale*(1+(r+q+round)%5) + 13*r + q
					}
				}
				for {
					var got []int
					aborted := func() (ab bool) {
						defer func() {
							if rec := recover(); rec != nil {
								if _, ok := rec.(fault.Aborted); !ok {
									panic(rec)
								}
								ab = true
							}
						}()
						c.Begin(r)
						if counted {
							got = AllToAllCounts(c, p, r, counts, nil, o)
							return false
						}
						in := AllToAll(c, p, r, zeroPayloads(counts), o)
						got = make([]int, len(in))
						for q, seg := range in {
							got[q] = len(seg)
						}
						return false
					}()
					if !aborted {
						res.got[r] = append(res.got[r], got)
						break
					}
					res.aborts++
					if r == victim {
						return // crashed
					}
					p.Sleep(1e-6) // back off and retry under the new view
				}
			}
		})
	}
	if victim >= 0 {
		m.Eng.Go("killer", func(p *sim.Proc) {
			p.Sleep(killAt)
			view.Kill(victim)
		})
	}
	end, err := m.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.end, res.fabric, res.comp = end, m.Fabric.Counters, c.Compression()
	return res
}

// TestAllToAllCountsMatchesZeroPayloads: AllToAllCounts prices exactly as
// AllToAll does on zero payloads of the same lengths — finish time, fabric
// bytes per class and link, CompressionStats and the received lengths — with
// and without a codec, plain, under a fault.View, and with a rank crashing
// mid-collective.
func TestAllToAllCountsMatchesZeroPayloads(t *testing.T) {
	codecs := []compress.Codec{nil, compress.FP32{}, compress.FP16{}, compress.NewInt8(9), compress.NewTopK(0.25)}
	for _, sc := range []struct {
		name     string
		n, scale int
		view     bool
		victim   int
		killAt   sim.Time
	}{
		{"plain", 4, 1000, false, -1, 0},
		{"plain-2", 2, 1000, false, -1, 0},
		{"single", 1, 1000, false, -1, 0},
		{"view", 4, 1000, true, -1, 0},
		{"crash", 4, 50000, true, 2, 1e-5},
	} {
		for _, codec := range codecs {
			o := Compressed(codec, hw.TrafficFeature)
			want := runCounted(t, sc.n, 3, sc.scale, o, sc.view, sc.victim, sc.killAt, false)
			got := runCounted(t, sc.n, 3, sc.scale, o, sc.view, sc.victim, sc.killAt, true)
			name := sc.name + "/" + compress.Name(codec)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: counts %+v\nzero payloads %+v", name, got, want)
			}
			if crashed := sc.victim >= 0; (got.aborts > 0) != crashed {
				t.Errorf("%s: %d aborted attempts; the crash must land mid-collective", name, got.aborts)
			}
			if sc.n > 1 && got.fabric.NVLinkBytes[hw.TrafficFeature] == 0 {
				t.Errorf("%s: no feature bytes on the fabric", name)
			}
		}
	}
}

// reduceOutcome is everything an allreduce leaves that a caller or a report
// can observe.
type reduceOutcome struct {
	end    sim.Time
	fabric hw.Counters
	comp   map[hw.TrafficClass]CompressionStats
}

// runReduce runs two rounds of an elems-element allreduce on n ranks
// through AllReduceCount (counted) or AllReduceSum on zero vectors, the
// cost-only gradients it replaced. With dead >= 0 that rank is dead under a
// fault.View from the start and takes no part.
func runReduce(t *testing.T, n, elems, dead int, o Opts, counted bool) reduceOutcome {
	t.Helper()
	m, c := newWorld(n)
	if dead >= 0 {
		view := fault.NewView(n)
		view.Kill(dead)
		c.SetView(view)
	}
	for r := 0; r < n; r++ {
		if r == dead {
			continue
		}
		r := r
		m.Eng.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			grad := make([]float32, elems)
			for round := 0; round < 2; round++ {
				c.Begin(r)
				if counted {
					c.AllReduceCount(p, r, elems, o)
					continue
				}
				c.AllReduceSum(p, r, grad, o)
				for i, v := range grad {
					if v != 0 {
						t.Errorf("rank %d: zero vectors summed to %g at %d", r, v, i)
						return
					}
				}
			}
		})
	}
	end, err := m.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return reduceOutcome{end: end, fabric: m.Fabric.Counters, comp: c.Compression()}
}

// TestAllReduceCountMatchesSum: AllReduceCount prices exactly as
// AllReduceSum does on zero vectors of the same length — finish time, fabric
// bytes per class and link, and CompressionStats — for every codec, rank
// count and price cap, and with a rank dead under a membership view.
func TestAllReduceCountMatchesSum(t *testing.T) {
	const elems = 3000 // several int8 chunks, a partial last one
	codecs := []compress.Codec{nil, compress.FP32{}, compress.FP16{}, compress.NewInt8(9), compress.NewTopK(0.1)}
	for _, n := range []int{2, 4, 8} {
		for _, dead := range []int{-1, 1} {
			live := n
			if dead >= 0 {
				live--
			}
			for _, price := range []int{0, elems / 3} {
				for _, codec := range codecs {
					o := Compressed(codec, hw.TrafficGradient)
					o.PriceElems = price
					want := runReduce(t, n, elems, dead, o, false)
					got := runReduce(t, n, elems, dead, o, true)
					name := fmt.Sprintf("n=%d/dead=%d/price=%d/%s", n, dead, price, compress.Name(codec))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: count %+v\nzero vectors %+v", name, got, want)
					}
					if live > 1 && got.fabric.NVLinkBytes[hw.TrafficGradient] == 0 {
						t.Errorf("%s: no gradient bytes on the fabric", name)
					}
				}
			}
		}
	}
}
