//go:build perfbench

package main

import (
	"fmt"
	"math"
	"slices"
)

// latencySummary condenses exact per-operation samples (nanoseconds).
// Tail is the highest of the decade percentiles (p90, p99, p99.9, ...)
// that still has at least ten samples beyond it; a percentile with fewer
// is one or two outliers, not a figure that repeats.
type latencySummary struct {
	Count         int
	Mean          float64
	P50, P99      float64
	TailQ, TailNs float64
	Max           float64
}

// summarize sorts samples in place and summarizes them.
func summarize(samples []uint32) latencySummary {
	if len(samples) == 0 {
		return latencySummary{}
	}
	slices.Sort(samples)
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	s := latencySummary{
		Count: len(samples),
		Mean:  sum / float64(len(samples)),
		P50:   quantile(samples, 0.50),
		P99:   quantile(samples, 0.99),
		Max:   float64(samples[len(samples)-1]),
	}
	s.TailQ = tailQuantile(len(samples))
	s.TailNs = quantile(samples, s.TailQ)
	return s
}

// tail describes the highest percentile the samples support.
func (s latencySummary) tail() string {
	return fmt.Sprintf("p%.6g = %.3f us, max %.3f us over %d samples", 100*s.TailQ, s.TailNs/1e3, s.Max/1e3, s.Count)
}

// tailQuantile returns the highest decade quantile with at least ten of
// n samples beyond it, and the median when even p90 has fewer.
func tailQuantile(n int) float64 {
	q := 0.5
	for d := 10; n/d >= 10; d *= 10 {
		q = 1 - 1/float64(d)
	}
	return q
}

// quantile interpolates linearly between the two nearest ranks of sorted
// samples, as Python's statistics.quantiles(method="inclusive") does.
func quantile[T uint32 | float64](sorted []T, q float64) float64 {
	switch len(sorted) {
	case 0:
		return 0
	case 1:
		return float64(sorted[0])
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*(float64(sorted[lo+1])-float64(sorted[lo]))
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// ratio is num over den, and 0 where there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fastDecile returns the decile of values on the fast side — the 10th
// percentile when lower is better, the 90th when higher is — that is, the
// figure the run reaches or beats in a tenth of its segments. The machine
// this benchmark was written on flips between a fast and a ~30 % slower
// state for seconds to minutes at a time (neighbours on the host), which
// only ever costs time; the median over segments follows whichever state
// held the majority of a run, the fast decile reads the undisturbed state
// as long as a tenth of the run saw it.
func fastDecile(values []float64, lowerIsBetter bool) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	if lowerIsBetter {
		return quantile(s, 0.10)
	}
	return quantile(s, 0.90)
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does (the
// exclusive method the benchmark's acceptance check uses), so a spread
// computed here matches the one the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		lo = min(max(lo, 0), n-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
