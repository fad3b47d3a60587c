package sim

import (
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/timebase"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.After(30*time.Nanosecond, func() { order = append(order, 3) })
	eng.After(10*time.Nanosecond, func() { order = append(order, 1) })
	eng.After(20*time.Nanosecond, func() { order = append(order, 2) })
	// Simultaneous events run in scheduling order.
	eng.After(10*time.Nanosecond, func() { order = append(order, 10) })
	eng.Run()
	want := []int{1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if eng.Now() != timebase.VTime(30*time.Nanosecond) {
		t.Errorf("final time = %v", eng.Now())
	}
	if eng.Pending() != 0 || eng.Step() {
		t.Error("engine not drained")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	hits := 0
	eng.After(10, func() {
		hits++
		eng.After(5, func() { hits++ })
	})
	eng.Run()
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
}

func TestEnginePastEventClamped(t *testing.T) {
	eng := NewEngine()
	eng.After(100*time.Nanosecond, func() {
		// Scheduling in the past clamps to now rather than time-travel.
		eng.At(0, func() {
			if eng.Now() != timebase.VTime(100*time.Nanosecond) {
				t.Errorf("past event ran at %v", eng.Now())
			}
		})
	})
	eng.Run()
}

func TestServerFIFO(t *testing.T) {
	eng := NewEngine()
	s := NewServer(eng, "cpu")
	var ends []timebase.VTime
	eng.At(0, func() {
		s.Process(10*time.Nanosecond, func(end timebase.VTime) { ends = append(ends, end) })
		s.Process(10*time.Nanosecond, func(end timebase.VTime) { ends = append(ends, end) })
	})
	eng.Run()
	if len(ends) != 2 || ends[0] != 10 || ends[1] != 20 {
		t.Errorf("ends = %v, want [10 20]", ends)
	}
	if u := s.Utilization(0); u != 1.0 {
		t.Errorf("utilization = %f, want 1.0", u)
	}
	if u := s.Utilization(40 * time.Nanosecond); u != 0.5 {
		t.Errorf("utilization over 40ns = %f, want 0.5 (20ns busy)", u)
	}
}

// TestPipelineBottleneckLaw: with deterministic services and back-to-back
// arrivals, sustained throughput equals 1/maxService.
func TestPipelineBottleneckLaw(t *testing.T) {
	stages := []StageSpec{
		{Name: "a", Service: func(int) time.Duration { return 50 }},
		{Name: "b", Service: func(int) time.Duration { return 200 }}, // bottleneck
		{Name: "c", Service: func(int) time.Duration { return 100 }},
	}
	const jobs = 1000
	res := RunPipeline(stages, jobs)
	// Makespan ≈ jobs×bottleneck + fill of the other stages.
	want := time.Duration(jobs*200 + 150)
	if res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	// The bottleneck stage saturates; others do not.
	if res.Utilization["b"] < 0.99 {
		t.Errorf("bottleneck utilization = %f", res.Utilization["b"])
	}
	if res.Utilization["a"] > 0.3 {
		t.Errorf("non-bottleneck utilization = %f", res.Utilization["a"])
	}
	// First job sees the empty pipeline: latency = sum of services.
	if res.Latency[0] != 350 {
		t.Errorf("first-job latency = %v, want 350", res.Latency[0])
	}
	// Later jobs queue behind the bottleneck.
	if res.Latency[jobs-1] <= res.Latency[0] {
		t.Error("queueing latency did not grow")
	}
}

func TestPipelineDelayDoesNotOccupy(t *testing.T) {
	// A huge delay after a fast stage must not reduce throughput.
	stages := []StageSpec{
		{Name: "fast", Service: func(int) time.Duration { return 10 }, Delay: 10 * time.Millisecond},
	}
	res := RunPipeline(stages, 100)
	want := time.Duration(100*10) + 10*time.Millisecond
	if res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

// TestSimMatchesAnalyticBottleneck cross-checks the DES against the
// calibrated analytic model: the simulated goodput of each system must be
// within a few percent of the closed-form bottleneck throughput once the
// pipeline-fill transient is amortized.
func TestSimMatchesAnalyticBottleneck(t *testing.T) {
	const jobs = 5000
	systems := []model.System{
		model.SysUDPNonBlocking, model.SysRawDPDK, model.SysCatnip,
		model.SysInsaneSlow, model.SysInsaneFast,
	}
	for _, sys := range systems {
		for _, payload := range []int{64, 1024, 8192} {
			res := SystemGoodput(sys, payload, jobs, model.Local)
			got := float64(res.Goodput(payload))
			want := float64(model.Build(sys).Throughput(payload, model.Local))
			if want == 0 {
				t.Fatalf("%v: analytic throughput is zero", sys)
			}
			ratio := got / want
			if ratio < 0.95 || ratio > 1.05 {
				t.Errorf("%v @%dB: sim %.2f vs analytic %.2f Gbps (ratio %.3f)",
					sys, payload, got/1e9, want/1e9, ratio)
			}
		}
	}
}

// TestSimLatencyUnderLoadGrows: the DES exposes queueing that the
// analytic model cannot (sanity for Fig. 8's regime).
func TestSimLatencyUnderLoadGrows(t *testing.T) {
	res := SystemGoodput(model.SysInsaneFast, 1024, 200, model.Local)
	if res.Latency[199] <= res.Latency[0] {
		t.Error("no queueing delay under sustained load")
	}
	// Unloaded latency (first job) approximates the one-way model.
	oneWay := model.Build(model.SysInsaneFast).OneWayLatency(1024, model.Local)
	first := res.Latency[0]
	// The DES charges occupancy-only work (TX completion reaping) and
	// amortized burst costs differently, so allow a generous band.
	if first < oneWay/2 || first > oneWay*2 {
		t.Errorf("first-job latency %v far from one-way model %v", first, oneWay)
	}
}

func TestGoodputZeroJobs(t *testing.T) {
	res := Result{}
	if res.Goodput(100) != 0 {
		t.Error("goodput of empty run must be 0")
	}
}

// TestMultiSinkDESMatchesAnalytic cross-validates the Fig. 8b analytic
// fanout model against the discrete-event simulation.
func TestMultiSinkDESMatchesAnalytic(t *testing.T) {
	const payload = 1024
	for _, n := range []int{1, 2, 4, 6, 8} {
		res := MultiSinkGoodput(model.SysInsaneFast, n, payload, 3000, model.Local)
		got := float64(res.Goodput(payload))
		want := float64(model.MultiSinkPerSinkThroughput(model.SysInsaneFast, n, payload, model.Local))
		ratio := got / want
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%d sinks: DES %.2f vs analytic %.2f Gbps (ratio %.3f)",
				n, got/1e9, want/1e9, ratio)
		}
	}
}
