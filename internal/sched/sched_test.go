package sched

import (
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// item is the element the scheduler tests queue: what a runtime token
// carries that a scheduler decision reads or shows up in.
type item struct {
	TS     bool // time-sensitive: the shaper's
	Tenant int
	Class  uint8
	Len    int
	VTime  timebase.VTime
	Send   time.Duration
}

// pkt is a time-sensitive item of a class.
func pkt(class uint8, vt timebase.VTime) item { return item{TS: true, Class: class, VTime: vt} }

// allOpen keeps every gate open: the shaper without a protected window.
var allOpen = GCL{{Duration: time.Millisecond, Gates: 0xFF}}

// newEgress is NewEgress for a test: an invalid list fails it.
func newEgress(t testing.TB, gcl GCL, weights ...int) *Egress[item] {
	t.Helper()
	e, err := NewEgress[item](gcl, weights)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// enqueue files p with e, told what the runtime tells it of a token.
func enqueue(e *Egress[item], p item, now timebase.VTime) {
	e.Enqueue(p, p.TS, p.Tenant, p.Class, p.Len, now)
}

// dequeue drains e into dst and does with each reported wait what the
// runtime does: added virtual latency, charged to the Send stage.
func dequeue(e *Egress[item], dst []item, now timebase.VTime) int {
	waits := make([]time.Duration, len(dst))
	n := e.Dequeue(dst, waits, now)
	for i := range dst[:n] {
		dst[i].VTime = dst[i].VTime.Add(waits[i])
		dst[i].Send += waits[i]
	}
	return n
}

func TestGCLValidate(t *testing.T) {
	bad := []GCL{
		{},
		{{Duration: 0, Gates: 1}},
		{{Duration: -time.Microsecond, Gates: 1}},
		{{Duration: time.Microsecond, Gates: 0}},
		{ // the cycle overflows a time.Duration
			{Duration: 1 << 62, Gates: 1 << 7}, {Duration: 1 << 62, Gates: 0x7F},
			{Duration: 1 << 62, Gates: 1 << 7}, {Duration: 1 << 62, Gates: 0x7F},
		},
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
	tas := newEgress(t, twoSliceGCL())
	enqueue(tas, pkt(7, 0), 0)
	enqueue(tas, pkt(0, 0), 0)
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
	tas := newEgress(t, twoSliceGCL())
	// Class 0 packet emitted during the protected window at t=10µs.
	emit := timebase.VTime(10 * time.Microsecond)
	enqueue(tas, pkt(0, emit), emit)
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
	tas := newEgress(t, allOpen)
	enqueue(tas, pkt(1, 0), 0)
	enqueue(tas, pkt(5, 0), 0)
	enqueue(tas, pkt(3, 0), 0)
	dst := make([]item, 3)
	if n := dequeue(tas, dst, 0); n != 3 {
		t.Fatalf("dequeue = %d, want 3", n)
	}
	if dst[0].Class != 5 || dst[1].Class != 3 || dst[2].Class != 1 {
		t.Errorf("priority order = %d,%d,%d, want 5,3,1", dst[0].Class, dst[1].Class, dst[2].Class)
	}
}

func TestTASClassClamping(t *testing.T) {
	tas := newEgress(t, GCL{{Duration: time.Millisecond, Gates: 0x80}})
	enqueue(tas, pkt(200, 0), 0) // out of range → clamped to 7
	dst := make([]item, 1)
	if n := dequeue(tas, dst, 0); n != 1 {
		t.Fatal("clamped packet not dequeued under class-7 gate")
	}
}

func TestTASNextEvent(t *testing.T) {
	tas := newEgress(t, twoSliceGCL())
	if tas.NextEvent(0) != 0 {
		t.Error("empty shaper: NextEvent must be 0")
	}
	// Class 0 queued during the protected window: the gate opens at 100µs.
	enqueue(tas, pkt(0, 0), 0)
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
	tas2 := newEgress(t, twoSliceGCL())
	enqueue(tas2, pkt(7, 0), 0)
	got := tas2.NextEvent(timebase.VTime(150 * time.Microsecond))
	if want := timebase.VTime(200 * time.Microsecond); got != want {
		t.Errorf("NextEvent wrap = %v, want %v", got, want)
	}
	// Class 0 behind a list that never opens it: no next event, not now.
	tas3 := newEgress(t, GCL{{Duration: 100 * time.Microsecond, Gates: 1 << 7}})
	enqueue(tas3, pkt(0, 0), 0)
	if got := tas3.NextEvent(0); got != Never {
		t.Errorf("NextEvent for a class never opened = %v, want Never", got)
	}
}

func TestTASFIFOWithinClass(t *testing.T) {
	tas := newEgress(t, allOpen)
	for i := 0; i < 4; i++ {
		p := pkt(2, timebase.VTime(i))
		enqueue(tas, p, 0)
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
	tas := newEgress(t, gcl)
	dst := make([]item, 1)
	for i := 0; i < 100; i++ {
		emit := timebase.VTime(i) * timebase.VTime(7*time.Microsecond)
		enqueue(tas, pkt(7, emit), emit)
		// Cross traffic.
		enqueue(tas, pkt(0, emit), emit)

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
	tas := newEgress(b, DefaultGCL())
	dst := make([]item, 32)
	waits := make([]time.Duration, 32)
	p := pkt(7, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enqueue(tas, p, 0)
		if i%32 == 31 {
			tas.Dequeue(dst, waits, 0)
		}
	}
}

// TestQueuesKeepOrderAcrossCompaction: the queues pop by head index and
// compact the dead prefix now and then; through 10 k interleaved enqueues
// and dequeues over a backlog that first grows deep and then drains —
// several compactions and resets per queue — every class of the shaper and
// every tenant of the round-robin releases in arrival order, and Pending
// counts what is queued.
func TestQueuesKeepOrderAcrossCompaction(t *testing.T) {
	const (
		ops    = 10000
		queues = 3
	)
	for name, s := range map[string]struct {
		e   *Egress[item]
		set func(p *item, q int) // files p in queue q
		key func(p item) int
	}{
		"tas": {
			e:   newEgress(t, allOpen),
			set: func(p *item, q int) { p.TS, p.Class = true, uint8(q) },
			key: func(p item) int { return int(p.Class) },
		},
		"wdrr": {
			e:   newEgress(t, allOpen, 1, 2, 3),
			set: func(p *item, q int) { p.Tenant = q },
			key: func(p item) int { return p.Tenant },
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
				if s.e.Pending() != queued {
					t.Fatalf("Pending = %d, want %d", s.e.Pending(), queued)
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
					p := item{Len: 64 + next(1400), VTime: timebase.VTime(in[k])}
					s.set(&p, k)
					enqueue(s.e, p, 0)
					in[k]++
					queued++
					if queued > deepest {
						deepest = queued
					}
				} else {
					check(dequeue(s.e, dst[:1+next(burst)], 0))
				}
			}
			if deepest < 1000 {
				t.Fatalf("backlog peaked at %d: too shallow to force a compaction", deepest)
			}
			for queued > 0 {
				n := dequeue(s.e, dst, 0)
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

// TestEgressShaperGoesFirst: the order between the two tiers. A burst
// smaller than the backlog fills with gate-open time-sensitive entries before
// any best-effort one, whatever arrived first; best effort is held through a
// protected window only when there are two tenants or more; and NextEvent is
// zero while a best-effort head is eligible, even with a shaper class waiting
// for a later opening.
func TestEgressShaperGoesFirst(t *testing.T) {
	protected := timebase.VTime(10 * time.Microsecond) // class 7 only
	opening := timebase.VTime(100 * time.Microsecond)  // the rest

	// One tenant: best effort is never gated.
	e := newEgress(t, twoSliceGCL())
	for i := 0; i < 4; i++ {
		enqueue(e, item{Len: 64 + i}, 0) // the length is the serial
	}
	enqueue(e, pkt(0, 0), 0) // gated until the opening
	enqueue(e, pkt(7, 0), 0)
	enqueue(e, pkt(7, 0), 0)
	if got := e.NextEvent(protected); got != 0 {
		t.Errorf("NextEvent with best effort eligible = %v, want 0", got)
	}
	dst := make([]item, 3)
	if n := dequeue(e, dst, protected); n != 3 || !dst[0].TS || !dst[1].TS || dst[2].TS {
		t.Fatalf("burst of 3 = %d %+v, want the two class-7 entries, then best effort", n, dst[:n])
	}
	rest := make([]item, 8)
	if n := dequeue(e, rest, protected); n != 3 {
		t.Fatalf("second burst = %d, want the 3 best-effort entries left", n)
	}
	for i, p := range append(dst[2:], rest[:3]...) {
		if p.TS || p.Len != 64+i {
			t.Errorf("best effort %d = %+v, want length %d", i, p, 64+i)
		}
	}
	if got := e.Pending(); got != 1 {
		t.Errorf("Pending = %d, want the gated class-0 entry", got)
	}
	if got := e.NextEvent(protected); got != opening {
		t.Errorf("NextEvent with only the shaper waiting = %v, want %v", got, opening)
	}

	// Two tenants: the protected window holds best effort too.
	e = newEgress(t, twoSliceGCL(), 1, 1)
	enqueue(e, item{Tenant: 1, Len: 64}, 0)
	if n := dequeue(e, rest, protected); n != 0 {
		t.Fatalf("two tenants, protected window: released %d, want 0", n)
	}
	if got := e.NextEvent(protected); got != opening {
		t.Errorf("two tenants: NextEvent = %v, want %v", got, opening)
	}
	if n := dequeue(e, rest, opening); n != 1 {
		t.Fatalf("two tenants, open window: released %d, want 1", n)
	}
}
