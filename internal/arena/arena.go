// Package arena provides size-classed buffer pools for the simulator's hot
// data paths (gather staging, allreduce scratch). The steady state of an
// epoch re-requests the same few buffer shapes thousands of times; pooling
// them removes the per-round allocation and the GC pressure of multi-MB
// float32 slices without changing any computed value — Get returns zeroed
// memory, exactly like make, and GetNoZero skips the clearing for a caller
// that writes every element before it reads any.
//
// Pools are NOT safe for concurrent use. Each owner (a communicator, a
// strategy instance) keeps its own pool and touches it only from simulation
// processes, which the DES engine runs strictly one at a time; offloaded
// data units (sim.ParallelGroup) must never Get/Put — they only fill
// buffers their submitting process obtained beforehand.
package arena

import "math/bits"

// maxClass covers buffers up to 2^32 elements; anything is representable.
const maxClass = 33

// Pool recycles []float32 buffers keyed by power-of-two capacity class.
type Pool struct {
	buckets [maxClass][][]float32
}

// sizeClass returns the bucket index for a capacity: the largest k with
// 2^k <= c, so every buffer in bucket k has capacity >= 2^k.
func sizeClass(c int) int {
	if c <= 1 {
		return 0
	}
	k := bits.Len(uint(c)) - 1
	if k >= maxClass {
		k = maxClass - 1
	}
	return k
}

// Get returns a zeroed buffer of length n, reusing pooled capacity when a
// large-enough buffer is available.
func (p *Pool) Get(n int) []float32 {
	b, reused := p.get(n)
	if reused {
		clear(b)
	}
	return b
}

// GetNoZero is Get for a caller that writes every element before it reads
// any — a product's output, a gather's destination: a reused buffer keeps
// whatever its last holder left in it.
func (p *Pool) GetNoZero(n int) []float32 {
	b, _ := p.get(n)
	return b
}

// get returns a buffer of length n and whether it came from the pool (a new
// one is zeroed by make).
func (p *Pool) get(n int) ([]float32, bool) {
	if n == 0 {
		return nil, false
	}
	// A buffer that can hold n lives in class ceil(log2 n) or above.
	k := sizeClass(n)
	if 1<<uint(k) < n {
		k++
	}
	if k >= maxClass {
		return make([]float32, n), false
	}
	for c := k; c < maxClass; c++ {
		if m := len(p.buckets[c]); m > 0 {
			b := p.buckets[c][m-1]
			p.buckets[c] = p.buckets[c][:m-1]
			return b[:n], true
		}
	}
	return make([]float32, n, 1<<uint(k)), false
}

// Put recycles b's capacity. Putting nil or zero-capacity slices is a no-op.
// The caller must not retain b.
func (p *Pool) Put(b []float32) {
	c := cap(b)
	if c == 0 {
		return
	}
	k := sizeClass(c)
	p.buckets[k] = append(p.buckets[k], b[:0])
}
