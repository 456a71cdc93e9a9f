// Package comm implements NCCL-style collectives (all-to-all, allreduce,
// allgather) over the simulated NVLink fabric.
//
// A Communicator is shared by one group of peer workers (one per GPU) — DSP
// creates one communicator per worker type (sampler, loader, trainer), just
// as the real system creates one NCCL communicator per worker group. Within
// a communicator all ranks must invoke the same collectives in the same
// order; ordering ACROSS communicators on a GPU is the province of the
// centralized communication coordination scheme (internal/pipeline), which
// plugs in through the Gate interface.
//
// Communicators are optionally membership-aware: under a fault.View
// (SetView), barriers release when all LIVE ranks arrive, transfers to dead
// ranks are skipped, and a death mid-collective aborts every in-flight
// participant with a fault.Aborted panic so callers can retry under the new
// view (Begin opens each retryable attempt). This is how degraded-mode
// serving keeps collectives running across GPU crashes.
//
// A value moves only when some rank reads it. Collectives move real Go data
// between ranks (sampled adjacency, real-compute gradients) while charging
// virtual time for the wire transfers, following the paper's protocol: each
// rank first notifies peers of the sizes they will receive, then the payload
// moves via all-to-all over NVLink. Payloads whose values no rank reads —
// feature requests and rows, p3's batch ids and first-layer activations,
// cost-only gradients — ride the count-only collectives instead:
// AllToAllCounts moves element counts and AllReduceCount moves nothing, and
// each charges exactly the virtual time, fabric bytes and codec accounting
// of its value-moving twin (AllToAll, AllReduceSum) on payloads of those
// lengths.
//
// Every collective takes an Opts describing the wire format. Opts.Codec
// prices float32 payloads on every collective, but changes values only in
// AllReduceSum: there each rank's contribution is quantised once and every
// rank decodes and sums the same images in rank order, so a lossy codec
// degrades training for real while all replicas stay bitwise identical.
// All-to-alls deliver payloads exactly as posted.
package comm

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Opts configures the wire format of one collective call.
type Opts struct {
	// Class tags the traffic for per-purpose byte accounting.
	Class hw.TrafficClass
	// ElemBytes is the raw wire size of one element. Ignored when Codec is
	// set (the codec prices float32 elements itself).
	ElemBytes int
	// Codec, when non-nil, prices the payload as float32 elements: wire
	// bytes follow Codec.WireBytes. Only AllReduceSum also round-trips the
	// values through it; all-to-alls deliver their payloads unchanged.
	Codec compress.Codec
	// PriceElems, when positive, caps the element count the WIRE is charged
	// for in AllReduceSum and AllReduceCount while the full vector still
	// moves and reduces — the values are untouched. This models parameter
	// shards that are replica-local and never ride the ring (P3's
	// dimension-sharded first layer): the BSP sum stays bitwise identical
	// across strategies, only the bill shrinks. Ignored by the other
	// collectives.
	PriceElems int
}

// Raw returns Opts for an uncompressed payload of elemBytes-sized elements.
func Raw(elemBytes int, class hw.TrafficClass) Opts {
	return Opts{Class: class, ElemBytes: elemBytes}
}

// Compressed returns Opts for a float32 payload under codec (nil codec
// means raw 4-byte floats).
func Compressed(codec compress.Codec, class hw.TrafficClass) Opts {
	return Opts{Class: class, ElemBytes: 4, Codec: codec}
}

// wireBytes prices an n-element payload under o.
func (o Opts) wireBytes(n int) int64 {
	if o.Codec != nil {
		return o.Codec.WireBytes(n)
	}
	return int64(n) * int64(o.ElemBytes)
}

// CompressionStats accumulates, per traffic class, the raw float32 bytes a
// codec-bearing collective would have sent against the bytes it actually
// charged. Raw == Wire when only identity codecs ran.
type CompressionStats struct {
	Raw  int64 // uncompressed payload bytes (4 per float32)
	Wire int64 // bytes actually charged to the fabric
}

// Gate is an optional launch arbiter for communication kernels. When set on
// a communicator, every collective passes through Enter before touching its
// peers and Exit when done — this is where the pipeline package's
// centralized communication coordination (CCC) plugs in.
type Gate interface {
	Enter(p *sim.Proc, gpu int)
	Exit(gpu int)
}

// Communicator coordinates one group of peer processes, one per GPU.
type Communicator struct {
	Machine *hw.Machine
	N       int

	barrier *sim.Barrier
	slots   []*arPost // per-rank allreduce contribution in flight
	boards  []board   // per payload type, the all-to-all posts in flight (see boardFor)
	gate    Gate
	comp    map[hw.TrafficClass]*CompressionStats

	// Allreduce fast path: BSP summation in rank order makes every rank's
	// result bitwise identical, so the reduction is computed ONCE per
	// collective (by the first rank through the post barrier) into a pooled
	// buffer all ranks copy from, instead of N full decode+sum passes.
	pool   arena.Pool         // recycled sum/scratch buffers
	par    *sim.ParallelGroup // offload/segment-parallel data work
	arSum  []float32          // the in-flight collective's shared reduction
	arLive int                // live contributors captured with arSum

	// Fault-aware membership (serving degraded mode). When view is set,
	// collectives synchronise over the live ranks only and an in-flight
	// collective aborts (panics fault.Aborted) the instant a member dies, so
	// participants can retry under the new view.
	view    *fault.View
	attGen  []int     // per-rank membership generation captured by Begin
	arrived int       // live arrivals in the current barrier cycle
	release int       // completed barrier cycles
	bcond   *sim.Cond // wakes barrier waiters
}

// board is the post table of one all-to-all payload type; drop forgets every
// rank's post.
type board interface{ drop() }

// typedBoard is the board of payload type S: posted[r] is rank r's out table.
// Posting a slice into a table of its own type boxes nothing.
type typedBoard[S any] struct{ posted [][]S }

func (b *typedBoard[S]) drop() { clear(b.posted) }

// boardFor returns c's board for payload type S, creating it on first use. A
// communicator carries a handful of payload types, so a scan of type
// assertions finds it without a map.
func boardFor[S any](c *Communicator) *typedBoard[S] {
	for _, b := range c.boards {
		if b, ok := b.(*typedBoard[S]); ok {
			return b
		}
	}
	b := &typedBoard[S]{posted: make([][]S, c.N)}
	c.boards = append(c.boards, b)
	return b
}

// SetGate installs a communication-kernel launch gate (one per worker
// group). Must be set before any collective runs.
func (c *Communicator) SetGate(g Gate) { c.gate = g }

// SetView makes the communicator membership-aware: barriers release when all
// LIVE ranks have arrived, transfers to dead ranks are skipped, and a death
// mid-collective aborts every participant of the in-flight attempt. Callers
// must bracket each collective sequence with Begin.
func (c *Communicator) SetView(v *fault.View) {
	c.view = v
	c.attGen = make([]int, c.N)
	c.bcond = c.Machine.Eng.NewCond()
	v.OnChange(func() {
		// A member died: void the in-flight attempt. Arrivals reset, posted
		// payloads are dropped (the shared reduction with them — it is NOT
		// returned to the pool, since an unwinding rank may still hold a
		// reference), and every waiter wakes to observe the stale generation
		// and unwind.
		c.arrived = 0
		clear(c.slots)
		for _, b := range c.boards {
			b.drop()
		}
		c.arSum, c.arLive = nil, 0
		c.notify()
	})
}

// Begin opens a collective attempt for rank under the current membership
// generation. Call it before the first collective of each retryable unit of
// work (e.g. one serving round); every collective in the unit aborts if the
// membership changes before the unit completes.
func (c *Communicator) Begin(rank int) {
	if c.view != nil {
		c.attGen[rank] = c.view.Gen()
	}
}

// check unwinds rank's attempt if its membership generation is stale.
func (c *Communicator) check(rank int) {
	if c.view != nil && c.attGen[rank] != c.view.Gen() {
		panic(fault.Aborted{Gen: c.attGen[rank]})
	}
}

// alive reports whether rank q participates in collectives.
func (c *Communicator) alive(q int) bool {
	return c.view == nil || c.view.Alive(q)
}

// notify wakes all barrier waiters.
func (c *Communicator) notify() { c.bcond.Broadcast() }

// arrive is the collective barrier: the plain cyclic barrier without a view,
// or a membership-aware one that releases when all live ranks have arrived
// and aborts waiters whose attempt generation went stale.
func (c *Communicator) arrive(p *sim.Proc, rank int) {
	if c.view == nil {
		c.barrier.Arrive(p)
		return
	}
	c.check(rank)
	c.arrived++
	if c.arrived >= c.view.LiveCount() {
		c.arrived = 0
		c.release++
		c.notify()
		return
	}
	my := c.release
	for c.release == my {
		c.bcond.Wait(p)
		c.check(rank)
	}
}

// enter/exit bracket one collective with the gate, if any.
func (c *Communicator) enter(p *sim.Proc, rank int) {
	c.check(rank)
	if c.gate != nil {
		c.gate.Enter(p, rank)
	}
}

func (c *Communicator) exit(rank int) {
	if c.gate != nil {
		c.gate.Exit(rank)
	}
}

// New creates a communicator over all GPUs of the machine.
func New(m *hw.Machine) *Communicator {
	n := len(m.GPUs)
	return &Communicator{
		Machine: m,
		N:       n,
		barrier: m.Eng.NewBarrier(n),
		slots:   make([]*arPost, n),
		comp:    map[hw.TrafficClass]*CompressionStats{},
	}
}

// Compression returns the accumulated compressed-vs-raw byte totals per
// traffic class for collectives that carried a codec.
func (c *Communicator) Compression() map[hw.TrafficClass]CompressionStats {
	out := make(map[hw.TrafficClass]CompressionStats, len(c.comp))
	for k, v := range c.comp {
		out[k] = *v
	}
	return out
}

// recordCompression accounts elems float32 values sent by rank under o and,
// when tracing, emits a cumulative compressed-vs-raw counter series.
func (c *Communicator) recordCompression(rank int, o Opts, elems int) {
	if o.Codec == nil || elems <= 0 {
		return
	}
	s := c.comp[o.Class]
	if s == nil {
		s = &CompressionStats{}
		c.comp[o.Class] = s
	}
	s.Raw += 4 * int64(elems)
	s.Wire += o.Codec.WireBytes(elems)
	if dev := c.Machine.GPUs[rank]; dev.Tracer.Enabled() {
		dev.Tracer.Counter("codec "+o.Class.String(), dev.ID,
			float64(c.Machine.Eng.Now()), map[string]float64{
				"raw":  float64(s.Raw),
				"wire": float64(s.Wire),
			})
	}
}

// sizeHeaderBytes is the per-peer size-notification message preceding each
// all-to-all (the "notify the amount of data" step in the paper).
const sizeHeaderBytes = 8

// AllToAll exchanges slices: rank r's out[q] is delivered, unchanged, as the
// return value's [r] on rank q. o prices the wire (a codec discounts the
// bill but never touches the values). Must be called by all ranks.
func AllToAll[T any](c *Communicator, p *sim.Proc, rank int, out [][]T, o Opts) [][]T {
	return AllToAllInto(c, p, rank, out, nil, o)
}

// AllToAllInto is AllToAll receiving into in: the result is in, resized to
// the rank count, when its capacity allows, and a new table otherwise. Only
// the table is the caller's; its segments are the senders' out segments, as
// in AllToAll.
func AllToAllInto[T any](c *Communicator, p *sim.Proc, rank int, out, in [][]T, o Opts) [][]T {
	return exchange(c, p, rank, out, in, o, func(seg []T) int { return len(seg) })
}

// AllToAllCounts is AllToAll for a modelled payload: rank sends counts[q]
// elements to q and gets back, indexed by sender, the count each live peer
// sent it (zero from dead ranks), received into in as AllToAllInto does
// (nil allocates). The virtual time, fabric bytes and codec accounting are
// exactly AllToAll's on payloads of those lengths; no element is
// materialised. Must be called by all ranks.
func AllToAllCounts(c *Communicator, p *sim.Proc, rank int, counts, in []int, o Opts) []int {
	return exchange(c, p, rank, counts, in, o, func(n int) int { return n })
}

// exchange is the one all-to-all body: post, synchronise, collect into in,
// the timed wire loop, synchronise. out[q] is what rank sends q and
// elems(out[q]) its element count on the wire.
func exchange[S any](c *Communicator, p *sim.Proc, rank int, out, in []S, o Opts, elems func(S) int) []S {
	if len(out) != c.N {
		panic(fmt.Sprintf("comm: rank %d posted %d buffers for %d ranks", rank, len(out), c.N))
	}
	if cap(in) < c.N {
		in = make([]S, c.N)
	}
	in = in[:c.N]
	if c.N == 1 {
		in[0] = out[0]
		return in
	}
	c.enter(p, rank)
	defer c.exit(rank)
	// Post and synchronise so every rank's payload is visible.
	b := boardFor[S](c)
	b.posted[rank] = out
	c.arrive(p, rank)
	// Collect (data is valid now; timing is enforced below). Dead ranks
	// contribute nothing — their in[q] is the zero value (empty).
	var zero S
	for q := 0; q < c.N; q++ {
		in[q] = zero
		if c.alive(q) && b.posted[q] != nil {
			in[q] = b.posted[q][rank]
		}
	}
	// Timed wire movement: size headers then payloads, charged to the
	// sender in deterministic peer order. Nothing is sent to dead ranks.
	dev := c.Machine.GPUs[rank]
	for i := 1; i < c.N; i++ {
		q := (rank + i) % c.N
		if !c.alive(q) {
			continue
		}
		n := elems(out[q])
		dev.Transfer(p, c.Machine.Fabric, q, sizeHeaderBytes, hw.TrafficOther)
		if w := o.wireBytes(n); w > 0 {
			dev.Transfer(p, c.Machine.Fabric, q, w, o.Class)
		}
		c.recordCompression(rank, o, n)
	}
	c.arrive(p, rank)
	return in
}

// AllGather delivers every rank's slice to every rank, indexed by rank.
func AllGather[T any](c *Communicator, p *sim.Proc, rank int, data []T, o Opts) [][]T {
	out := make([][]T, c.N)
	for q := range out {
		if q != rank {
			out[q] = data
		}
	}
	in := AllToAll(c, p, rank, out, o)
	in[rank] = data
	return in
}

// arPost is one rank's allreduce contribution: the raw vector plus, under a
// lossy codec, its encoded image (what actually rides the wire). Encoding is
// offloaded; tick's Join is the commit point at which enc is valid.
type arPost struct {
	raw  []float32
	enc  *compress.Buf
	tick sim.Ticket
}

// group lazily binds the communicator to the engine's parallel budget.
func (c *Communicator) group() *sim.ParallelGroup {
	if c.par == nil {
		c.par = c.Machine.Eng.NewParallelGroup()
	}
	return c.par
}

// reduceOnce computes the rank-order sum of all live posted contributions
// into a pooled buffer, decoding lossy contributions first. Called by the
// first rank through the post barrier; every other rank reuses the result
// (bitwise identical to what it would have computed itself). Decodes run
// segment-free but rank-parallel on the worker pool; the summation is
// segment-parallel with the per-element rank order preserved.
func (c *Communicator) reduceOnce(n int, o Opts, lossy bool) {
	live := 0
	posts := make([]*arPost, 0, c.N)
	for q := 0; q < c.N; q++ {
		if !c.alive(q) || c.slots[q] == nil {
			continue
		}
		live++
		posts = append(posts, c.slots[q])
	}
	sum := c.pool.Get(n)
	contribs := make([][]float32, 0, len(posts))
	var scratch [][]float32
	if lossy {
		encs := make([]*compress.Buf, len(posts))
		for i, peer := range posts {
			peer.tick.Join() // enc is valid from here
			encs[i] = peer.enc
		}
		var decodes []func()
		for _, enc := range encs {
			dst := c.pool.Get(n)
			scratch = append(scratch, dst)
			enc := enc
			decodes = append(decodes, func() { o.Codec.Decode(enc, dst) })
			contribs = append(contribs, dst)
		}
		c.group().Run(decodes)
	} else {
		for _, peer := range posts {
			contribs = append(contribs, peer.raw)
		}
	}
	// Segment-parallel sum; each element still accumulates in rank order.
	const segElems = 64 << 10
	if n <= segElems || len(contribs) == 0 {
		for _, contrib := range contribs {
			for i, v := range contrib {
				sum[i] += v
			}
		}
	} else {
		var adds []func()
		for lo := 0; lo < n; lo += segElems {
			lo := lo
			hi := lo + segElems
			if hi > n {
				hi = n
			}
			adds = append(adds, func() {
				dst := sum[lo:hi]
				for _, contrib := range contribs {
					seg := contrib[lo:hi]
					for i, v := range seg {
						dst[i] += v
					}
				}
			})
		}
		c.group().Run(adds)
	}
	for _, s := range scratch {
		c.pool.Put(s)
	}
	c.arSum, c.arLive = sum, live
}

// AllReduceSum sums float32 vectors across ranks in place, charging
// ring-allreduce wire time (2(live-1) chunk steps around the ring). Every
// rank computes the same bitwise result (summation in rank order),
// preserving the BSP guarantee that all model replicas stay identical.
//
// With a codec in o, each rank's contribution — including the caller's own
// — is quantised once at the sender and every rank decodes and sums the
// same encoded images, so quantisation error flows into the model while
// replicas remain bitwise equal. Wire bytes per ring chunk shrink by the
// codec's ratio.
func (c *Communicator) AllReduceSum(p *sim.Proc, rank int, data []float32, o Opts) {
	if c.N == 1 {
		return
	}
	c.enter(p, rank)
	defer c.exit(rank)
	post := &arPost{raw: data}
	lossy := o.Codec != nil && !compress.Identity(o.Codec)
	if lossy {
		// Quantisation is pure data work keyed by element index and value;
		// offload it so ranks' encodes overlap in real time. data is
		// untouched until the copy-out barrier, well after the Join.
		post.tick = c.group().Submit(func() { post.enc = o.Codec.Encode(data) })
	}
	c.slots[rank] = post
	c.arrive(p, rank)
	// Deterministic rank-order reduction (live ranks only under a
	// membership view), computed once per collective and shared: BSP
	// summation order makes every rank's sum bitwise identical, so the
	// first rank resumed from the barrier reduces for everyone.
	if c.arSum == nil {
		c.reduceOnce(len(data), o, lossy)
	}
	sum := c.arSum
	c.ring(p, rank, len(data), c.arLive, o)
	copy(data, sum)
	c.arrive(p, rank)
	// Every rank has copied out; the first one through recycles the shared
	// buffer for the next collective.
	if c.arSum != nil {
		c.pool.Put(c.arSum)
		c.arSum, c.arLive = nil, 0
	}
}

// AllReduceCount is AllReduceSum for a vector of n elements whose values no
// rank reads (cost-only training's gradients): the same gate, barriers,
// ring transfers and codec accounting, with nothing posted, reduced or
// copied. Must be called by all ranks.
func (c *Communicator) AllReduceCount(p *sim.Proc, rank, n int, o Opts) {
	if c.N == 1 {
		return
	}
	c.enter(p, rank)
	defer c.exit(rank)
	c.arrive(p, rank)
	live := c.N
	if c.view != nil {
		live = c.view.LiveCount()
	}
	c.ring(p, rank, n, live, o)
	c.arrive(p, rank)
}

// ring is the timed body of an n-element allreduce over live ranks: each
// rank sends 2(live-1) chunks of the codec-priced vector divided over the
// live ranks to its live successor, accounts the codec, and waits for the
// ring to finish.
func (c *Communicator) ring(p *sim.Proc, rank, n, live int, o Opts) {
	dev := c.Machine.GPUs[rank]
	next := (rank + 1) % c.N
	if c.view != nil {
		next = c.view.NextLive(rank)
	}
	priced := n
	if o.PriceElems > 0 && o.PriceElems < priced {
		priced = o.PriceElems
	}
	wire := o.wireBytes(priced)
	if o.Codec == nil && o.ElemBytes == 0 {
		wire = 4 * int64(priced) // allreduce payloads are always float32
	}
	chunk := wire / int64(live)
	if chunk < 1 {
		chunk = 1
	}
	for step := 0; step < 2*(live-1); step++ {
		dev.Transfer(p, c.Machine.Fabric, next, chunk, o.Class)
	}
	c.recordCompression(rank, o, priced)
	c.arrive(p, rank)
}

// Barrier synchronises the group without moving data. rank identifies the
// caller for membership-aware synchronisation (ignored without a view).
func (c *Communicator) Barrier(p *sim.Proc, rank int) {
	if c.N == 1 {
		return
	}
	c.arrive(p, rank)
}
