// Log-linear fixed-bucket histograms, the HDR-histogram idiom: bucket
// boundaries grow exponentially (one octave per power of two) and each
// octave is subdivided linearly, so a single preallocated array covers
// nanoseconds to tens of seconds with bounded (~12%) relative error and
// O(1) recording — one bit-scan plus two atomic adds (the bucket and the
// sum), no allocation, no locks. This is what lets every pipeline stage
// keep a latency distribution of its sampled messages without breaking
// the hot path's 0 allocs/op discipline (DESIGN.md §8).

package telemetry

import (
	"math/bits"
	"sync/atomic"
)

const (
	// histSubBits sets the linear subdivision: 2^histSubBits sub-buckets
	// per octave (8 → worst-case relative error 1/2^3 ≈ 12%).
	histSubBits = 3
	histSub     = 1 << histSubBits

	// histMaxExp caps the tracked magnitude at 2^histMaxExp
	// (≈ 34 s in nanoseconds); larger values clamp into the last bucket.
	histMaxExp = 35

	// NumBuckets is the bucket count of every histogram: histSub unit
	// buckets for values below 2^histSubBits, then histSub linear
	// sub-buckets per octave up to histMaxExp.
	NumBuckets = histSub + (histMaxExp-histSubBits+1)*histSub
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the top bit, >= histSubBits
	if exp > histMaxExp {
		return NumBuckets - 1
	}
	sub := int(v>>(uint(exp)-histSubBits)) & (histSub - 1)
	return histSub + (exp-histSubBits)*histSub + sub
}

// BucketUpper returns the inclusive upper bound of bucket i (the largest
// value that maps into it).
func BucketUpper(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := histSubBits + (i-histSub)/histSub
	sub := uint64((i-histSub)%histSub + 1)
	return uint64(1)<<uint(exp) + sub<<(uint(exp)-histSubBits) - 1
}

// Hist is one fixed-bucket histogram: preallocated, recorded into with
// two atomic adds per sample (its bucket and the sum), merged off the hot
// path. The sample count is not stored: it is the total of the buckets,
// taken when a snapshot merges them, so Prometheus `_sum`/`_count`
// semantics and mean latencies still fall out of a snapshot directly.
//
//insane:shared
type Hist struct {
	//insane:guardedby atomic
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64 //insane:guardedby atomic
}

// observe records one value (negative values clamp to zero).
func (h *Hist) observe(v int64) {
	u := uint64(v)
	if v < 0 {
		u = 0
	}
	h.buckets[bucketIndex(u)].Add(1)
	h.sum.Add(u)
}

// HistSnapshot is a merged, immutable view of one histogram.
type HistSnapshot struct {
	// Count is the number of recorded values — always the total of
	// Buckets — and Sum their sum.
	Count, Sum uint64
	// Buckets holds per-bucket occupancy (not cumulative); bucket i
	// covers (BucketUpper(i-1), BucketUpper(i)].
	Buckets [NumBuckets]uint64
}

// merge accumulates a live histogram into the snapshot. Count is the
// total of the bucket loads, so it equals the sum of Buckets in every
// snapshot, however many observes run beside the merge; Sum is loaded
// after the buckets and so covers every value the buckets do (an observe
// adds to its bucket first), at most a few in-flight values more.
func (s *HistSnapshot) merge(h *Hist) {
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] += n
		s.Count += n
	}
	s.Sum += h.sum.Load()
}

// Quantile returns an upper bound of the q-quantile (q in [0,1]) of the
// recorded values, or 0 when the histogram is empty.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i := range s.Buckets {
		seen += s.Buckets[i]
		if seen > rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Max returns the upper bound of the highest occupied bucket.
func (s *HistSnapshot) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// Mean returns the arithmetic mean of the recorded values.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
