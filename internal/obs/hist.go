package obs

import (
	"math/bits"
	"sync/atomic"
)

// subBits sets the histogram resolution: each octave (2^e, 2^(e+1)]
// splits into 2^subBits = 8 equal-width buckets.
const subBits = 3

// histBuckets covers 1ns .. 2^40ns (~1099s): eight exact buckets for
// 1..8ns, then eight per octave up to 2^40.
const histBuckets = 1<<subBits + (40-subBits)<<subBits

// Histogram is a lock-free log-linear duration histogram: 1..8ns each
// get a bucket of their own, and every octave above splits into eight
// equal-width buckets, so a bucket is at most 1/8 as wide as the values
// it holds. Quantile reports bucket midpoints, within 1/16 (6.25%) of
// the true value, at the cost of one atomic add per observation.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	if ns < 1 {
		ns = 1
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// bucketOf returns the bucket of an observation v >= 1. With u = v-1,
// u < 8 is its own bucket; above, the octave of u (its top bit e) and
// the three bits below the top pick the bucket, so bucket bounds are
// inclusive upper bounds and exact powers of two end a bucket.
func bucketOf(v int64) int {
	u := uint64(v - 1)
	if u < 1<<subBits {
		return int(u)
	}
	e := bits.Len64(u) - 1
	b := (e-subBits+1)<<subBits + int(u>>uint(e-subBits)&(1<<subBits-1))
	return min(b, histBuckets-1)
}

// Bucket returns the count in bucket i (0 <= i < NumHistBuckets).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil {
		return 0
	}
	return h.buckets[i].Load()
}

// BucketBound returns the inclusive upper bound, in nanoseconds, of
// bucket i (observations v with BucketBound(i-1) < v <= BucketBound(i)).
func BucketBound(i int) int64 {
	if i < 1<<subBits {
		return int64(i) + 1
	}
	e := i>>subBits + subBits - 1 // octave of the bucket's u values
	sub := int64(i & (1<<subBits - 1))
	return (1<<subBits + sub + 1) << uint(e-subBits) // last u of the bucket, plus one
}

// NumHistBuckets is the number of histogram buckets (1ns .. ~1099s,
// eight per octave).
const NumHistBuckets = histBuckets

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the total observed nanoseconds.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds: the
// midpoint of the bucket where the q-th observation lands, within
// 6.25% of it (exact below 9ns).
func (h *Histogram) Quantile(q float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	want := int64(q * float64(total))
	if want < 1 {
		want = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= want {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// bucketMid returns the midpoint of the integers bucket i holds.
func bucketMid(i int) int64 {
	lo := int64(1)
	if i > 0 {
		lo = BucketBound(i-1) + 1
	}
	return (lo + BucketBound(i)) / 2
}
