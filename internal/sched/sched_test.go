package sched

import (
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// item is the element the scheduler tests queue: what a runtime token
// carries that a scheduler decision reads or shows up in.
type item struct {
	Tenant int
	Class  uint8
	Len    int
	VTime  timebase.VTime
	Send   time.Duration
}

func pkt(class uint8, vt timebase.VTime) item { return item{Class: class, VTime: vt} }

// queue is the dequeue side both schedulers share.
type queue interface {
	Dequeue(dst []item, waits []time.Duration, now timebase.VTime) int
}

// dequeue drains q into dst and does with each reported wait what the
// runtime does: added virtual latency, charged to the Send stage.
func dequeue(q queue, dst []item, now timebase.VTime) int {
	waits := make([]time.Duration, len(dst))
	n := q.Dequeue(dst, waits, now)
	for i := range dst[:n] {
		dst[i].VTime = dst[i].VTime.Add(waits[i])
		dst[i].Send += waits[i]
	}
	return n
}

func enqTAS(tas *TAS[item], p item, now timebase.VTime) { tas.Enqueue(p, p.Class, now) }

func TestGCLValidate(t *testing.T) {
	bad := []GCL{
		{},
		{{Duration: 0, Gates: 1}},
		{{Duration: -time.Microsecond, Gates: 1}},
		{{Duration: time.Microsecond, Gates: 0}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad[%d]: want error", i)
		}
	}
	if err := DefaultGCL().Validate(); err != nil {
		t.Errorf("DefaultGCL invalid: %v", err)
	}
	if DefaultGCL().Cycle() != 250*time.Microsecond {
		t.Errorf("DefaultGCL cycle = %v, want 250µs", DefaultGCL().Cycle())
	}
}

// twoSliceGCL: class 7 open for the first 100µs, classes 0-6 for the next
// 100µs.
func twoSliceGCL() GCL {
	return GCL{
		{Duration: 100 * time.Microsecond, Gates: 1 << 7},
		{Duration: 100 * time.Microsecond, Gates: 0x7F},
	}
}

func TestTASGatesByClass(t *testing.T) {
	tas, err := NewTAS[item](twoSliceGCL())
	if err != nil {
		t.Fatal(err)
	}
	enqTAS(tas, pkt(7, 0), 0)
	enqTAS(tas, pkt(0, 0), 0)
	dst := make([]item, 4)

	// During the protected window only class 7 leaves.
	if n := dequeue(tas, dst, timebase.VTime(10*time.Microsecond)); n != 1 {
		t.Fatalf("protected window dequeue = %d, want 1", n)
	}
	if dst[0].Class != 7 {
		t.Errorf("dequeued class %d, want 7", dst[0].Class)
	}
	if tas.Pending() != 1 {
		t.Errorf("pending = %d, want 1", tas.Pending())
	}
	// During the open window, class 0 leaves.
	if n := dequeue(tas, dst, timebase.VTime(150*time.Microsecond)); n != 1 {
		t.Fatalf("open window dequeue = %d, want 1", n)
	}
	if dst[0].Class != 0 {
		t.Errorf("dequeued class %d, want 0", dst[0].Class)
	}
}

func TestTASGateWaitShowsInVTime(t *testing.T) {
	tas, err := NewTAS[item](twoSliceGCL())
	if err != nil {
		t.Fatal(err)
	}
	// Class 0 packet emitted during the protected window at t=10µs.
	emit := timebase.VTime(10 * time.Microsecond)
	enqTAS(tas, pkt(0, emit), emit)
	dst := make([]item, 1)
	now := timebase.VTime(120 * time.Microsecond)
	if n := dequeue(tas, dst, now); n != 1 {
		t.Fatal("packet not released in open window")
	}
	if dst[0].VTime != now {
		t.Errorf("vtime = %v, want %v (emit + 110µs gate wait)", dst[0].VTime, now)
	}
}

func TestTASStrictPriorityAmongOpenGates(t *testing.T) {
	tas, err := NewTAS[item](GCL{{Duration: time.Millisecond, Gates: 0xFF}})
	if err != nil {
		t.Fatal(err)
	}
	enqTAS(tas, pkt(1, 0), 0)
	enqTAS(tas, pkt(5, 0), 0)
	enqTAS(tas, pkt(3, 0), 0)
	dst := make([]item, 3)
	if n := dequeue(tas, dst, 0); n != 3 {
		t.Fatalf("dequeue = %d, want 3", n)
	}
	if dst[0].Class != 5 || dst[1].Class != 3 || dst[2].Class != 1 {
		t.Errorf("priority order = %d,%d,%d, want 5,3,1", dst[0].Class, dst[1].Class, dst[2].Class)
	}
}

func TestTASClassClamping(t *testing.T) {
	tas, _ := NewTAS[item](GCL{{Duration: time.Millisecond, Gates: 0x80}})
	enqTAS(tas, pkt(200, 0), 0) // out of range → clamped to 7
	dst := make([]item, 1)
	if n := dequeue(tas, dst, 0); n != 1 {
		t.Fatal("clamped packet not dequeued under class-7 gate")
	}
}

func TestTASNextEvent(t *testing.T) {
	tas, err := NewTAS[item](twoSliceGCL())
	if err != nil {
		t.Fatal(err)
	}
	if tas.NextEvent(0) != 0 {
		t.Error("empty shaper: NextEvent must be 0")
	}
	// Class 0 queued during the protected window: the gate opens at 100µs.
	enqTAS(tas, pkt(0, 0), 0)
	now := timebase.VTime(30 * time.Microsecond)
	want := timebase.VTime(100 * time.Microsecond)
	if got := tas.NextEvent(now); got != want {
		t.Errorf("NextEvent = %v, want %v", got, want)
	}
	// Once inside the open window it is eligible now.
	if got := tas.NextEvent(timebase.VTime(150 * time.Microsecond)); got != 0 {
		t.Errorf("NextEvent in open window = %v, want 0", got)
	}
	// Class 7 queued during the open window: opens at next cycle start.
	tas2, _ := NewTAS[item](twoSliceGCL())
	enqTAS(tas2, pkt(7, 0), 0)
	got := tas2.NextEvent(timebase.VTime(150 * time.Microsecond))
	if want := timebase.VTime(200 * time.Microsecond); got != want {
		t.Errorf("NextEvent wrap = %v, want %v", got, want)
	}
}

func TestTASFIFOWithinClass(t *testing.T) {
	tas, _ := NewTAS[item](GCL{{Duration: time.Millisecond, Gates: 0xFF}})
	for i := 0; i < 4; i++ {
		p := pkt(2, timebase.VTime(i))
		enqTAS(tas, p, 0)
	}
	dst := make([]item, 4)
	dequeue(tas, dst, 0)
	for i, p := range dst {
		if p.VTime != timebase.VTime(i) {
			t.Errorf("within-class order broken at %d", i)
		}
	}
}

// TestTASJitterBound: with cross traffic on class 0, class-7 packets never
// wait longer than the open window (the 802.1Qbv guarantee the paper's TSN
// QoS is for).
func TestTASJitterBound(t *testing.T) {
	gcl := twoSliceGCL()
	tas, _ := NewTAS[item](gcl)
	dst := make([]item, 1)
	for i := 0; i < 100; i++ {
		emit := timebase.VTime(i) * timebase.VTime(7*time.Microsecond)
		enqTAS(tas, pkt(7, emit), emit)
		// Cross traffic.
		enqTAS(tas, pkt(0, emit), emit)

		// Drain class 7 at the next protected window.
		next := tas.NextEvent(emit)
		now := emit
		if next != 0 {
			now = next
		}
		// Find a protected-window instant at or after now.
		for !tas.GateOpenAt(7, now) {
			now = tas.NextEvent(now)
		}
		if n := dequeue(tas, dst[:1], now); n != 1 {
			t.Fatalf("iteration %d: class 7 packet not released", i)
		}
		if wait := dst[0].VTime.Sub(emit); wait > gcl.Cycle() {
			t.Fatalf("iteration %d: class-7 wait %v exceeds cycle %v", i, wait, gcl.Cycle())
		}
		// Drain cross traffic.
		for tas.Pending() > 0 {
			now = timebase.Max(now, tas.NextEvent(now))
			dequeue(tas, dst[:1], now)
		}
	}
}

func BenchmarkTASEnqueueDequeue(b *testing.B) {
	tas, _ := NewTAS[item](DefaultGCL())
	dst := make([]item, 32)
	waits := make([]time.Duration, 32)
	p := pkt(7, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enqTAS(tas, p, 0)
		if i%32 == 31 {
			tas.Dequeue(dst, waits, 0)
		}
	}
}

// TestQueuesKeepOrderAcrossCompaction: the queues pop by head index and
// compact the dead prefix now and then; through 10 k interleaved enqueues
// and dequeues over a backlog that first grows deep and then drains —
// several compactions and resets per queue — every class of the shaper and
// every tenant of the deficit scheduler releases in arrival order, and
// Pending counts what is queued.
func TestQueuesKeepOrderAcrossCompaction(t *testing.T) {
	const (
		ops    = 10000
		queues = 3
	)
	tas, _ := NewTAS[item](GCL{{Duration: time.Millisecond, Gates: 0xFF}})
	wdrr, _ := NewWDRR[item]([]int{1, 2, 3}, nil)
	for name, s := range map[string]struct {
		enq     func(q int, p item)
		q       queue
		pending func() int
		key     func(p item) int
	}{
		"tas": {
			enq:     func(q int, p item) { p.Class = uint8(q); enqTAS(tas, p, 0) },
			q:       tas,
			pending: tas.Pending,
			key:     func(p item) int { return int(p.Class) },
		},
		"wdrr": {
			enq:     func(q int, p item) { p.Tenant = q; enqWDRR(wdrr, p, 0) },
			q:       wdrr,
			pending: wdrr.Pending,
			key:     func(p item) int { return p.Tenant },
		},
	} {
		t.Run(name, func(t *testing.T) {
			var in, out [queues]int // serials handed in and seen back, per queue
			queued, deepest := 0, 0
			dst := make([]item, 32)
			rnd := uint32(1)
			next := func(n int) int { // xorshift: the same schedule every run
				rnd ^= rnd << 13
				rnd ^= rnd >> 17
				rnd ^= rnd << 5
				return int(rnd % uint32(n))
			}
			check := func(n int) {
				t.Helper()
				for _, p := range dst[:n] {
					k := s.key(p)
					if int(p.VTime) != out[k] {
						t.Fatalf("queue %d released serial %d, want %d", k, p.VTime, out[k])
					}
					out[k]++
				}
				queued -= n
				if s.pending() != queued {
					t.Fatalf("Pending = %d, want %d", s.pending(), queued)
				}
			}
			for op := 0; op < ops; op++ {
				// Arrivals outrun the egress for the first half, then fall
				// behind it: the backlog builds past any one compaction
				// and drains to empty more than once.
				arrivals, burst := 24, 2
				if op >= ops/2 {
					arrivals, burst = 8, len(dst)
				}
				if next(32) < arrivals {
					k := next(queues)
					s.enq(k, item{Len: 64 + next(1400), VTime: timebase.VTime(in[k])})
					in[k]++
					queued++
					if queued > deepest {
						deepest = queued
					}
				} else {
					check(dequeue(s.q, dst[:1+next(burst)], 0))
				}
			}
			if deepest < 1000 {
				t.Fatalf("backlog peaked at %d: too shallow to force a compaction", deepest)
			}
			for queued > 0 {
				n := dequeue(s.q, dst, 0)
				if n == 0 {
					t.Fatalf("%d queued and nothing released", queued)
				}
				check(n)
			}
			if in != out {
				t.Errorf("handed in %v, got back %v", in, out)
			}
		})
	}
}
