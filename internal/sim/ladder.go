package sim

import "slices"

// timerQueue is an indexed bucket ("ladder") priority queue for timers,
// replacing the container/heap implementation that boxed every timer through
// interface{} on Push/Pop. It exploits the DES access pattern — pop times are
// monotonically non-decreasing, and every push is for the current instant or
// later — to make Push amortized O(1) and Pop amortized O(1) plus a sort
// whose total cost is O(n log b) over the life of the queue (b = bucket
// population, typically tiny).
//
// Structure, nearest deadline first:
//
//	bottom — the timers being drained right now, sorted DESCENDING by
//	         (at, seq) so Pop is a constant-time slice truncation.
//	rung   — one ladder rung: buckets of width rungWidth covering
//	         [rungStart, rungStart+len(rung)*rungWidth). Buckets are
//	         unsorted; a bucket is sorted only when it becomes bottom.
//	top    — unsorted far-future overflow past the rung, with its min/max
//	         tracked. When bottom and rung drain, top is scattered into a
//	         fresh rung sized so buckets stay near-constant population.
//
// Ordering is exactly the heap's: ascending (at, seq). The DES invariant
// that a new timer's deadline is never before the last popped deadline means
// a push landing "behind" the drain point can only happen while its bucket
// is already bottom, so such pushes clamp into the current bucket and get
// ordered by the bottom insertion (or the pending bucket sort).
//
// Bucket storage is recycled through free, so a steady stream of timers
// settles into the arrays it already has and a Push allocates nothing.
type timerQueue struct {
	n         int
	bottom    []timer // sorted descending by (at, seq); pop from the end
	rung      [][]timer
	rungStart Time
	rungWidth Time
	rungIdx   int // next rung bucket to drain
	top       []timer
	topMin    Time
	topMax    Time
	free      [][]timer // drained buckets, emptied, for add to reuse
}

// timerBefore is the strict (at, seq) ordering shared with the old heap.
func timerBefore(a, b timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// descending is timerBefore reversed, as a comparison for the slices package:
// bottom is kept in this order so the earliest timer pops from its end.
func descending(a, b timer) int {
	if timerBefore(a, b) {
		return 1
	}
	return -1 // (at, seq) pairs are unique, never equal
}

func (q *timerQueue) Len() int { return q.n }

// add appends t to bucket b, starting an empty one in recycled storage.
func (q *timerQueue) add(b []timer, t timer) []timer {
	if n := len(q.free); b == nil && n > 0 {
		b, q.free = q.free[n-1], q.free[:n-1]
	}
	return append(b, t)
}

// recycle hands a drained bucket's storage to add.
func (q *timerQueue) recycle(b []timer) {
	if cap(b) > 0 {
		clear(b[:cap(b)]) // drop the *Proc references
		q.free = append(q.free, b[:0])
	}
}

// Push inserts t. The caller guarantees t.at is not before the last popped
// deadline (DES monotonicity).
func (q *timerQueue) Push(t timer) {
	q.n++
	// Nearer than the furthest pending bottom entry: binary-insert into the
	// descending bottom slice so it pops in order.
	if len(q.bottom) > 0 && !timerBefore(q.bottom[0], t) {
		i, _ := slices.BinarySearchFunc(q.bottom, t, descending)
		q.bottom = slices.Insert(q.bottom, i, t)
		return
	}
	if q.rungIdx < len(q.rung) && t.at < q.rungStart+Time(len(q.rung))*q.rungWidth {
		i := int((t.at - q.rungStart) / q.rungWidth)
		// Float rounding or a deadline inside the bucket currently being
		// drained can land before the drain point; clamp (see type comment).
		if i < q.rungIdx {
			i = q.rungIdx
		}
		if i >= len(q.rung) {
			i = len(q.rung) - 1
		}
		q.rung[i] = q.add(q.rung[i], t)
		return
	}
	if len(q.top) == 0 || t.at < q.topMin {
		q.topMin = t.at
	}
	if len(q.top) == 0 || t.at > q.topMax {
		q.topMax = t.at
	}
	q.top = q.add(q.top, t)
}

// Pop removes and returns the earliest timer by (at, seq).
func (q *timerQueue) Pop() timer {
	for {
		if len(q.bottom) > 0 {
			q.n--
			t := q.bottom[len(q.bottom)-1]
			q.bottom = q.bottom[:len(q.bottom)-1]
			return t
		}
		if q.rungIdx < len(q.rung) {
			b := q.rung[q.rungIdx]
			q.rung[q.rungIdx] = nil
			q.rungIdx++
			if len(b) > 0 {
				slices.SortFunc(b, descending)
				q.recycle(q.bottom)
				q.bottom = b
			}
			continue
		}
		q.rung, q.rungIdx = q.rung[:0], 0
		if len(q.top) == 0 {
			panic("sim: pop from empty timer queue")
		}
		q.spread()
	}
}

// spread scatters top into a fresh rung sized for ~1 timer per bucket, or
// straight into bottom when all deadlines coincide (or top is small).
func (q *timerQueue) spread() {
	top := q.top
	q.top = nil
	span := q.topMax - q.topMin
	if span <= 0 || len(top) <= 4 {
		slices.SortFunc(top, descending)
		q.recycle(q.bottom)
		q.bottom = top
		return
	}
	nb := min(len(top), 1024)
	if cap(q.rung) < nb {
		q.rung = make([][]timer, nb)
	}
	q.rung = q.rung[:nb] // reused buckets were set to nil as they drained
	q.rungStart = q.topMin
	q.rungWidth = span / Time(nb)
	if q.rungWidth <= 0 { // span underflowed the division; degenerate to one bucket
		q.rung = q.rung[:1]
		q.rungWidth = span + 1
	}
	q.rungIdx = 0
	for _, t := range top {
		i := int((t.at - q.rungStart) / q.rungWidth)
		if i >= len(q.rung) {
			i = len(q.rung) - 1
		}
		if i < 0 {
			i = 0
		}
		q.rung[i] = q.add(q.rung[i], t)
	}
	q.recycle(top)
}

// clear drops all pending timers (engine teardown).
func (q *timerQueue) clear() {
	*q = timerQueue{}
}
