package telemetry

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestBucketIndexBounds checks that every value maps into range and that
// BucketUpper is a consistent inclusive upper bound: v always lands in a
// bucket whose upper bound is >= v, and the previous bucket's bound < v.
func TestBucketIndexBounds(t *testing.T) {
	vals := []uint64{0, 1, 7, 8, 9, 15, 16, 17, 255, 256, 1000, 4096,
		1_000_000, 1 << 30, 1 << 35, 1 << 36, 1 << 60, ^uint64(0)}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if v <= 1<<histMaxExp { // clamped values legitimately exceed the bound
			if up := BucketUpper(i); up < v {
				t.Fatalf("value %d landed in bucket %d with upper %d", v, i, up)
			}
			if i > 0 {
				if low := BucketUpper(i - 1); low >= v {
					t.Fatalf("value %d in bucket %d but bucket %d upper %d >= v", v, i, i-1, low)
				}
			}
		}
	}
}

// TestBucketUpperMonotonic checks the exported bounds strictly increase.
func TestBucketUpperMonotonic(t *testing.T) {
	prev := BucketUpper(0)
	for i := 1; i < NumBuckets; i++ {
		up := BucketUpper(i)
		if up <= prev {
			t.Fatalf("BucketUpper(%d)=%d <= BucketUpper(%d)=%d", i, up, i-1, prev)
		}
		prev = up
	}
}

// TestHistQuantile records a known distribution and checks quantile
// bounds respect the log-linear error envelope.
func TestHistQuantile(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.observe(int64(i) * 1000) // 1µs .. 1ms
	}
	var s HistSnapshot
	s.merge(&h)
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	p50 := s.Quantile(0.5)
	if p50 < 400_000 || p50 > 650_000 {
		t.Fatalf("p50 = %d ns, want ≈ 500000 within bucket error", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 900_000 || p99 > 1_200_000 {
		t.Fatalf("p99 = %d ns, want ≈ 990000 within bucket error", p99)
	}
	if max := s.Max(); max < 1_000_000 || max > 1_200_000 {
		t.Fatalf("max = %d ns, want ≈ 1000000 within bucket error", max)
	}
	if mean := s.Mean(); mean < 500_000 || mean > 501_200 {
		t.Fatalf("mean = %f, want 500500", mean)
	}
}

// TestConcurrentRecording hammers one telemetry domain from many
// goroutines and checks no update is lost and histogram totals match
// counter totals exactly.
func TestConcurrentRecording(t *testing.T) {
	const (
		workers = 8
		perW    = 10_000
	)
	tel := New(4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sh := tel.Shard(int(seed) % 4) // two writers a shard
			for i := 0; i < perW; i++ {
				sh.Inc(CtrEmits)
				sh.Add(CtrEmitBytes, 64)
				sh.Observe(HistConsumeLatency, rng.Int63n(1_000_000))
			}
		}(int64(w))
	}
	wg.Wait()

	snap := tel.Snapshot()
	if got := snap.Counters[CtrEmits]; got != workers*perW {
		t.Fatalf("emits = %d, want %d", got, workers*perW)
	}
	if got := snap.Counters[CtrEmitBytes]; got != workers*perW*64 {
		t.Fatalf("emit bytes = %d, want %d", got, workers*perW*64)
	}
	h := snap.Hists[HistConsumeLatency]
	if h.Count != workers*perW {
		t.Fatalf("hist count = %d, want %d", h.Count, workers*perW)
	}
	var bucketTotal uint64
	for _, b := range h.Buckets {
		bucketTotal += b
	}
	if bucketTotal != h.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, h.Count)
	}
}

// TestHistCountIsBucketTotal: a histogram stores no sample count — Count
// is the total of the buckets a snapshot loaded — so it equals the sum of
// Buckets in every snapshot, taken beside any number of running observes
// (with a count word of its own, a snapshot between an observe's two adds
// saw them differ). The final figures equal a serial recording of the
// same values: TestHistQuantile's fixture, once per writer.
func TestHistCountIsBucketTotal(t *testing.T) {
	const writers = 4
	tel := New(writers)
	var ref Hist
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		for i := 1; i <= 1000; i++ {
			ref.observe(int64(i) * 1000)
		}
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				sh.Observe(HistConsumeLatency, int64(i)*1000)
				if i%50 == 0 {
					runtime.Gosched() // let the snapshots interleave on one core too
				}
			}
		}(tel.Shard(w))
	}
	writersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(writersDone)
	}()
	check := func(h *HistSnapshot) {
		var total uint64
		for _, b := range h.Buckets {
			total += b
		}
		if h.Count != total {
			t.Fatalf("snapshot Count = %d, bucket total = %d", h.Count, total)
		}
	}
	for running := true; running; {
		select {
		case <-writersDone:
			running = false
		default:
		}
		check(&tel.Snapshot().Hists[HistConsumeLatency])
	}
	got := tel.Snapshot().Hists[HistConsumeLatency]
	var want HistSnapshot
	want.merge(&ref)
	if got != want {
		t.Errorf("concurrent recording: count %d sum %d p50 %d max %d, serial: count %d sum %d p50 %d max %d",
			got.Count, got.Sum, got.Quantile(0.5), got.Max(), want.Count, want.Sum, want.Quantile(0.5), want.Max())
	}
	if got.Count != writers*1000 || got.Mean() != 500_500 {
		t.Errorf("count = %d, mean = %v, want %d and 500500", got.Count, got.Mean(), writers*1000)
	}
}

// TestSnapshotMonotonic checks that successive snapshots never go
// backwards while writers run.
func TestSnapshotMonotonic(t *testing.T) {
	tel := New(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sh := tel.Shard(0)
		for {
			select {
			case <-stop:
				return
			default:
				sh.Inc(CtrDispatches)
				sh.Observe(HistSchedDwell, 123)
			}
		}
	}()
	var prevCtr, prevHist uint64
	for i := 0; i < 200; i++ {
		s := tel.Snapshot()
		if s.Counters[CtrDispatches] < prevCtr {
			t.Fatalf("counter went backwards: %d < %d", s.Counters[CtrDispatches], prevCtr)
		}
		if s.Hists[HistSchedDwell].Count < prevHist {
			t.Fatalf("hist count went backwards: %d < %d", s.Hists[HistSchedDwell].Count, prevHist)
		}
		prevCtr = s.Counters[CtrDispatches]
		prevHist = s.Hists[HistSchedDwell].Count
	}
	close(stop)
	wg.Wait()
}

// TestMetricNamesComplete checks every counter and histogram has a name
// and help text (exporters render them unconditionally).
func TestMetricNamesComplete(t *testing.T) {
	for c := CounterID(0); c < NumCounters; c++ {
		if NameOf(c) == "" || counterTable[c].help == "" {
			t.Fatalf("counter %d missing name or help", c)
		}
		if !strings.HasPrefix(CounterMetricName(c), MetricPrefix) {
			t.Fatalf("counter %d metric name %q missing prefix", c, CounterMetricName(c))
		}
	}
	for h := HistID(0); h < NumHists; h++ {
		if HistNameOf(h) == "" || histTable[h].help == "" {
			t.Fatalf("hist %d missing name or help", h)
		}
	}
}
