//go:build perfbench

package main

import (
	"math"
	"math/rand"
	"testing"
)

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestSummarizeKnownDistribution(t *testing.T) {
	// 1..1000 shuffled: median 500.5, p99 990.01, mean 500.5.
	samples := make([]uint32, 1000)
	for i := range samples {
		samples[i] = uint32(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	s := summarize(samples)
	if s.Count != 1000 || !near(s.P50, 500.5, 1e-9) || !near(s.P99, 990.01, 1e-9) || !near(s.Mean, 500.5, 1e-9) || s.Max != 1000 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	// 1000 samples leave 10 beyond p99 and 1 beyond p99.9.
	if s.TailQ != 0.99 || !near(s.TailNs, s.P99, 1e-9) {
		t.Errorf("tail of 1000 samples = p%g (%g), want p99", 100*s.TailQ, s.TailNs)
	}
	if got := summarize(nil); got.Count != 0 || got.P50 != 0 {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {100_000, 0.9999}, {1_000_000, 0.99999}} {
		if got := tailQuantile(c.n); !near(got, c.want, 1e-12) {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75, 1e-12) || !near(q2, 5.5, 1e-12) || !near(q3, 8.25, 1e-12) {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if !near(q1, 1, 1e-12) || !near(q2, 2, 1e-12) || !near(q3, 4, 1e-12) {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); !near(got, 1.0, 1e-12) {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestFastDecileReadsTheUndisturbedState(t *testing.T) {
	// 21 segments: 6 in the fast state around 1200, 15 in the slow one.
	values := []float64{1530, 1201, 1520, 1540, 1199, 1510, 1525, 1200, 1535, 1515, 1202, 1545, 1500, 1198, 1550, 1505, 1203, 1560, 1528, 1533, 1519}
	if got := fastDecile(values, true); !near(got, 1200, 1.5) {
		t.Errorf("fastDecile(lower is better) = %g, want the fast state's ~1200", got)
	}
	if got := median(values); got < 1500 {
		t.Errorf("median = %g: the fixture should put the majority in the slow state", got)
	}
	rates := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if got := fastDecile(rates, false); !near(got, 19, 1e-9) {
		t.Errorf("fastDecile(higher is better) = %g, want 19", got)
	}
}
