package sample

import (
	"unsafe"

	"repro/internal/cpuid"
	"repro/internal/graph"
	"repro/internal/rng"
)

// useAVX2 selects Rows' body: set once from the CPU probe, and by tests that
// run both bodies over the same rows.
var useAVX2 = cpuid.AVX2

// rowLanes is how many rows one pass of the row kernel draws: two sets of
// four 64-bit AVX2 lanes, one row per lane.
const rowLanes = 8

// maxRowK is the largest fan-out the row kernel draws; a larger one goes
// through DrawAdj. Its picks table is maxRowK steps of eight lanes (1 KB).
const maxRowK = 32

// lanes is the row kernel's working set for one pass, lane i holding row i.
// uniformRowsAVX2 (rows_amd64.s) reads it at fixed offsets: keep the field
// order and sizes.
type lanes struct {
	s     [4][rowLanes]uint64             // each row's xoshiro256** words, word-major
	adj   [rowLanes]*graph.NodeID         // &row[0]
	bound [rowLanes]uint64                // d−k+1, Intn's first bound
	out   [rowLanes]*graph.NodeID         // &reply slots[0]
	seed  [rowLanes]uint64                // the requester's layer seed
	node  [rowLanes]uint64                // the node's global id, zero-extended
	picks [maxRowK][rowLanes]graph.NodeID // picks[j][i]: row i's j-th sample
	repl  [maxRowK][rowLanes]graph.NodeID // repl[j][i]: row i's adj[d−k+j]
}

// Rows draws node-wise uniform rows without replacement eight at a time: the
// ids and counts DrawAdj writes for a row with cfg's Biased and
// WithReplacement unset, from the same seed, bit for bit. Rows the kernel
// cannot take — d ≤ k, k outside 1…maxRowK, or no AVX2 body — go through
// DrawAdj at once. The zero value is ready; a Rows serves one caller at a time and
// allocates nothing.
//
// A lane runs DrawAdj's whole Uniform draw: Seed(MixStep(layerSeed, v)),
// then for j ascending the Lemire draw Intn(d−k+j+1), the read of adj[t],
// and Floyd's replacement rule against picks 0…j−1. The one step it does not
// take is Lemire's lazy rejection: a lane whose product's low word may fall
// below the bound is flagged, and its row is drawn again by Uniform from the
// same initial state.
type Rows struct {
	l    lanes
	n, k int
	adjs [rowLanes][]graph.NodeID // the queued rows, for a flagged lane's redraw
	outs [rowLanes][]graph.NodeID
}

// Add queues the draw of k neighbours of the node with global id v from its
// adjacency row adj, seeded like DrawAdj from layerSeed, into out[:k], and
// returns how many ids the row gets: min(k, len(adj)), 0 for k < 1. out must
// hold that many; its ids are final once Flush returns.
func (r *Rows) Add(adj []graph.NodeID, v graph.NodeID, layerSeed uint64, k int, out []graph.NodeID) int {
	d := len(adj)
	if !useAVX2 || k < 1 || d <= k || k > maxRowK {
		return len(DrawAdj(adj, nil, v, layerSeed, k, Config{}, out[:0], nil))
	}
	if r.n > 0 && k != r.k {
		r.Flush()
	}
	i := r.n
	r.l.seed[i], r.l.node[i] = layerSeed, uint64(uint32(v))
	r.l.adj[i] = &adj[0]
	r.l.bound[i] = uint64(d - k + 1)
	r.l.out[i] = &out[0]
	r.adjs[i], r.outs[i] = adj, out[:k]
	r.k = k
	if r.n++; r.n == rowLanes {
		r.Flush()
	}
	return k
}

// Flush draws every queued row into its out.
func (r *Rows) Flush() {
	if r.n > 0 {
		r.seed()
		r.draw()
	}
}

// seed fills the idle lanes and writes every lane's generator words. Idle
// lanes repeat lane 0, reply slots included: they draw lane 0's row and
// store the same ids there.
func (r *Rows) seed() {
	for i := r.n; i < rowLanes; i++ {
		r.l.seed[i], r.l.node[i] = r.l.seed[0], r.l.node[0]
		r.l.adj[i], r.l.bound[i], r.l.out[i] = r.l.adj[0], r.l.bound[0], r.l.out[0]
	}
	seedRowsAVX2(&r.l)
}

// draw runs the kernel over the seeded lanes, then draws every flagged
// row again with Uniform from its lane's generator words, which the
// kernel leaves as they were.
func (r *Rows) draw() {
	n, k := r.n, r.k
	r.n = 0
	redo := uniformRowsAVX2(&r.l, k)
	for i := 0; i < n && redo != 0; i, redo = i+1, redo>>1 {
		if redo&1 != 0 {
			var gen rng.RNG
			gen.SetState([4]uint64{r.l.s[0][i], r.l.s[1][i], r.l.s[2][i], r.l.s[3][i]})
			Uniform(&gen, r.adjs[i], k, r.outs[i][:0])
		}
	}
}

// rows_amd64.s addresses lanes by fixed offsets; they hold while repl, the
// last field, starts at byte 1600, which this line checks at compile time.
var _ = [1]struct{}{}[unsafe.Offsetof(lanes{}.repl)-1600]
