// Package metrics provides a small streaming latency histogram with
// log-spaced buckets: constant memory, ~2% relative quantile error, and
// lossless merging across instances (e.g. one histogram per GPU merged into
// a fleet-wide view). It backs the serving-path latency percentiles and the
// per-stage epoch timing distributions of the trainer.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// growth is the geometric bucket width: each bucket covers values within a
// factor of growth of its neighbours, bounding relative quantile error to
// growth-1 (~2%).
const growth = 1.02

var invLogGrowth = 1 / math.Log(growth)

// underflowBucket collects non-positive observations (virtual-time deltas
// can be exactly zero when stages complete at the same instant).
const underflowBucket = math.MinInt32

// Histogram is a mergeable streaming histogram. The zero value is NOT ready
// to use; create with New. All methods are deterministic: identical
// observation sequences produce identical state and identical query results.
type Histogram struct {
	counts map[int]uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{counts: map[int]uint64{}}
}

func bucketOf(v float64) int {
	if v <= 0 {
		return underflowBucket
	}
	return int(math.Floor(math.Log(v) * invLogGrowth))
}

// bucketValue is the representative value reported for a bucket: the
// geometric midpoint of its bounds (the underflow bucket reports 0).
func bucketValue(b int) float64 {
	if b == underflowBucket {
		return 0
	}
	return math.Pow(growth, float64(b)+0.5)
}

// BucketOf exposes the log-spaced bucket index for v. The telemetry
// layer keys its latency exemplars by the same bucket a histogram
// observation lands in, so a drill-down can be linked back to the
// distribution that surfaced it.
func BucketOf(v float64) int { return bucketOf(v) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations (0 for a nil histogram, e.g. the
// stage distributions of a sampler-only epoch).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() float64 { return h.max }

// Mean returns the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) with relative
// error bounded by the bucket growth factor, clamped to [Min, Max]. Returns
// 0 if the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based: ceil(q * count), at least 1.
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var seen uint64
	for _, k := range keys {
		seen += h.counts[k]
		if seen >= rank {
			v := bucketValue(k)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50, P95 and P99 are the conventional latency percentiles.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Merge adds all observations recorded in other into h. Merging is lossless:
// the result is identical to having observed both streams into one histogram
// (the per-bucket counts are additive and min/max/sum combine exactly).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	for k, c := range other.counts {
		h.counts[k] += c
	}
	h.count += other.count
	h.sum += other.sum
}

// String summarises the histogram for logs: count, mean and tail quantiles.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		h.count, h.Mean(), h.P50(), h.P95(), h.P99(), h.max)
}
