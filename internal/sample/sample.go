// Package sample implements the graph-sampling kernels and mini-batch
// sample structures of sampling-based GNN training.
//
// The low-level kernels (uniform/weighted neighbour draws, layer-wise budget
// splitting) operate on adjacency slices and are shared by every system:
// DSP's collective sampling primitive runs them on the GPU owning the
// adjacency list, the UVA baselines run them after pulling adjacency over
// PCIe, and the CPU baselines run them on host cores.
//
// Seeding discipline: the neighbour draw for node v in layer l of a batch
// with seed s uses a generator seeded with rng.Mix(s, l, v). Sampling is
// therefore a pure function of (batch seed, layer, node), independent of
// which device executes it — this is what lets the tests assert that
// multi-GPU CSP produces bit-identical samples to a single-address-space
// sampler.
package sample

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// nodeSeed is the generator seed of (batchSeed, layer, node).
func nodeSeed(batchSeed uint64, layer int, v graph.NodeID) uint64 {
	return rng.Mix(batchSeed, uint64(layer), uint64(uint32(v)))
}

// NodeSeed derives the deterministic RNG for (batchSeed, layer, node).
func NodeSeed(batchSeed uint64, layer int, v graph.NodeID) *rng.RNG {
	return rng.New(nodeSeed(batchSeed, layer, v))
}

// Uniform draws min(fanout, len(adj)) neighbours without replacement,
// appending to out. This matches DGL's default neighbour sampling (all
// neighbours are taken when the degree is at most the fan-out). A fan-out
// below one draws nothing.
//
// The draw is Floyd's algorithm on neighbour VALUES — step j draws a position
// t in [0, d-k+j] and takes adj[t] unless that value was already taken, in
// which case it takes adj[d-k+j] — because a row may hold the same neighbour
// twice, so distinct positions do not imply distinct values. Every step draws
// exactly one position whatever the row holds, which lets the work be
// reordered: all k positions first, then the k reads they name back to back
// (independent loads, instead of one cache miss per step queued behind the
// previous step's scan), then the replacement rule over the gathered values.
func Uniform(r *rng.RNG, adj []graph.NodeID, fanout int, out []graph.NodeID) []graph.NodeID {
	d := len(adj)
	if d == 0 || fanout <= 0 {
		return out
	}
	if d <= fanout {
		return append(out, adj...)
	}
	base := len(out)
	out = slices.Grow(out, fanout)[:base+fanout]
	picks := out[base:]
	// Positions ride in the output slots they will be replaced in: a row is
	// indexed by NodeID-sized degrees, so a position fits one.
	for j := range picks {
		picks[j] = graph.NodeID(r.Intn(d - fanout + j + 1))
	}
	for j, t := range picks {
		picks[j] = adj[t]
	}
	for j := 1; j < fanout; j++ {
		if slices.Contains(picks[:j], picks[j]) {
			picks[j] = adj[d-fanout+j]
		}
	}
	return out
}

// UniformWithReplacement draws exactly fanout neighbours with replacement.
func UniformWithReplacement(r *rng.RNG, adj []graph.NodeID, fanout int, out []graph.NodeID) []graph.NodeID {
	d := len(adj)
	if d == 0 {
		return out
	}
	for i := 0; i < fanout; i++ {
		out = append(out, adj[r.Intn(d)])
	}
	return out
}

// Keys is caller-owned scratch for Weighted's selection keys, one per
// neighbour of the node being drawn, reused from call to call. The zero value
// is ready; a Keys serves one draw at a time.
type Keys struct{ cands []cand }

// Weighted draws min(fanout, len(adj)) neighbours without replacement with
// probability proportional to weights (A-ES / Efraimidis-Spirakis keys). The
// keys live in keys, so a warm call allocates nothing.
func Weighted(r *rng.RNG, adj []graph.NodeID, weights []float32, fanout int, out []graph.NodeID, keys *Keys) []graph.NodeID {
	d := len(adj)
	if d == 0 {
		return out
	}
	if d <= fanout {
		return append(out, adj...)
	}
	// key_i = u^(1/w_i); take the top fanout keys. Equivalent: take the
	// smallest -ln(u)/w_i (exponential race).
	cands := slices.Grow(keys.cands[:0], d)
	for i := 0; i < d; i++ {
		w := float64(weights[i])
		if w <= 0 {
			continue
		}
		cands = append(cands, cand{r.Exp(w), i})
	}
	keys.cands = cands
	if len(cands) <= fanout {
		for _, c := range cands {
			out = append(out, adj[c.idx])
		}
		return out
	}
	// Partial selection of the fanout smallest keys.
	selectSmallest(cands, fanout)
	for i := 0; i < fanout; i++ {
		out = append(out, adj[cands[i].idx])
	}
	return out
}

// WeightedWithReplacement draws exactly fanout neighbours with replacement,
// proportional to weights (linear CDF walk; adjacency lists are short-lived
// so no alias table is built).
func WeightedWithReplacement(r *rng.RNG, adj []graph.NodeID, weights []float32, fanout int, out []graph.NodeID) []graph.NodeID {
	d := len(adj)
	if d == 0 {
		return out
	}
	var total float64
	for _, w := range weights {
		total += float64(w)
	}
	if total <= 0 {
		return out
	}
	for k := 0; k < fanout; k++ {
		x := r.Float64() * total
		var acc float64
		idx := d - 1
		for i, w := range weights {
			acc += float64(w)
			if x < acc {
				idx = i
				break
			}
		}
		out = append(out, adj[idx])
	}
	return out
}

// cand is a keyed candidate for weighted reservoir selection.
type cand struct {
	key float64
	idx int
}

// selectSmallest partially sorts cands so the k smallest keys occupy the
// first k slots (quickselect with deterministic median-of-three pivots).
func selectSmallest(cands []cand, k int) {
	lo, hi := 0, len(cands)-1
	for lo < hi {
		// Median-of-three pivot.
		mid := (lo + hi) / 2
		if cands[mid].key < cands[lo].key {
			cands[mid], cands[lo] = cands[lo], cands[mid]
		}
		if cands[hi].key < cands[lo].key {
			cands[hi], cands[lo] = cands[lo], cands[hi]
		}
		if cands[hi].key < cands[mid].key {
			cands[hi], cands[mid] = cands[mid], cands[hi]
		}
		pivot := cands[mid].key
		i, j := lo, hi
		for i <= j {
			for cands[i].key < pivot {
				i++
			}
			for cands[j].key > pivot {
				j--
			}
			if i <= j {
				cands[i], cands[j] = cands[j], cands[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// LayerBudget implements the paper's Eq. (2) frontier-budget split for
// layer-wise sampling with replacement: draw the layer budget n times from
// the frontier-mass distribution p_u = W_u / sum(W), where W_u is the total
// neighbour weight of frontier node u; the returned counts say how many
// neighbours each frontier node must sample.
func LayerBudget(r *rng.RNG, masses []float64, n int) []int {
	counts := make([]int, len(masses))
	var total float64
	for _, m := range masses {
		total += m
	}
	if total <= 0 || n <= 0 {
		return counts
	}
	// CDF for binary search.
	cdf := make([]float64, len(masses))
	var acc float64
	for i, m := range masses {
		acc += m
		cdf[i] = acc
	}
	for k := 0; k < n; k++ {
		x := r.Float64() * total
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		counts[lo]++
	}
	return counts
}

// LayerBudgetWithoutReplacement splits the budget like LayerBudget but caps
// each frontier node's count at its distinct-neighbour capacity and
// redistributes the excess (the appendix procedure referenced by the paper:
// repeated capped multinomial rounds until the budget is exhausted or all
// capacity is used).
func LayerBudgetWithoutReplacement(r *rng.RNG, masses []float64, capacity []int, n int) []int {
	counts := make([]int, len(masses))
	remaining := n
	free := make([]float64, len(masses))
	copy(free, masses)
	for remaining > 0 {
		var total float64
		for i, m := range free {
			if counts[i] < capacity[i] {
				total += m
			}
		}
		if total <= 0 {
			break
		}
		draw := LayerBudget(r, maskedMasses(free, counts, capacity), remaining)
		progressed := false
		for i, c := range draw {
			if c == 0 {
				continue
			}
			room := capacity[i] - counts[i]
			if c > room {
				c = room
			}
			if c > 0 {
				counts[i] += c
				remaining -= c
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return counts
}

func maskedMasses(masses []float64, counts, capacity []int) []float64 {
	out := make([]float64, len(masses))
	for i, m := range masses {
		if counts[i] < capacity[i] {
			out[i] = m
		}
	}
	return out
}
