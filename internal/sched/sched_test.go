package sched

import (
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/timebase"
)

func pkt(class uint8, vt timebase.VTime) *datapath.Packet {
	return &datapath.Packet{Class: class, VTime: vt}
}

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
	tas, err := NewTAS(twoSliceGCL())
	if err != nil {
		t.Fatal(err)
	}
	tas.Enqueue(pkt(7, 0), 0)
	tas.Enqueue(pkt(0, 0), 0)
	dst := make([]*datapath.Packet, 4)

	// During the protected window only class 7 leaves.
	if n := tas.Dequeue(dst, timebase.VTime(10*time.Microsecond)); n != 1 {
		t.Fatalf("protected window dequeue = %d, want 1", n)
	}
	if dst[0].Class != 7 {
		t.Errorf("dequeued class %d, want 7", dst[0].Class)
	}
	if tas.Pending() != 1 {
		t.Errorf("pending = %d, want 1", tas.Pending())
	}
	// During the open window, class 0 leaves.
	if n := tas.Dequeue(dst, timebase.VTime(150*time.Microsecond)); n != 1 {
		t.Fatalf("open window dequeue = %d, want 1", n)
	}
	if dst[0].Class != 0 {
		t.Errorf("dequeued class %d, want 0", dst[0].Class)
	}
}

func TestTASGateWaitShowsInVTime(t *testing.T) {
	tas, err := NewTAS(twoSliceGCL())
	if err != nil {
		t.Fatal(err)
	}
	// Class 0 packet emitted during the protected window at t=10µs.
	emit := timebase.VTime(10 * time.Microsecond)
	tas.Enqueue(pkt(0, emit), emit)
	dst := make([]*datapath.Packet, 1)
	now := timebase.VTime(120 * time.Microsecond)
	if n := tas.Dequeue(dst, now); n != 1 {
		t.Fatal("packet not released in open window")
	}
	if dst[0].VTime != now {
		t.Errorf("vtime = %v, want %v (emit + 110µs gate wait)", dst[0].VTime, now)
	}
}

func TestTASStrictPriorityAmongOpenGates(t *testing.T) {
	tas, err := NewTAS(GCL{{Duration: time.Millisecond, Gates: 0xFF}})
	if err != nil {
		t.Fatal(err)
	}
	tas.Enqueue(pkt(1, 0), 0)
	tas.Enqueue(pkt(5, 0), 0)
	tas.Enqueue(pkt(3, 0), 0)
	dst := make([]*datapath.Packet, 3)
	if n := tas.Dequeue(dst, 0); n != 3 {
		t.Fatalf("dequeue = %d, want 3", n)
	}
	if dst[0].Class != 5 || dst[1].Class != 3 || dst[2].Class != 1 {
		t.Errorf("priority order = %d,%d,%d, want 5,3,1", dst[0].Class, dst[1].Class, dst[2].Class)
	}
}

func TestTASClassClamping(t *testing.T) {
	tas, _ := NewTAS(GCL{{Duration: time.Millisecond, Gates: 0x80}})
	tas.Enqueue(pkt(200, 0), 0) // out of range → clamped to 7
	dst := make([]*datapath.Packet, 1)
	if n := tas.Dequeue(dst, 0); n != 1 {
		t.Fatal("clamped packet not dequeued under class-7 gate")
	}
}

func TestTASNextEvent(t *testing.T) {
	tas, err := NewTAS(twoSliceGCL())
	if err != nil {
		t.Fatal(err)
	}
	if tas.NextEvent(0) != 0 {
		t.Error("empty shaper: NextEvent must be 0")
	}
	// Class 0 queued during the protected window: the gate opens at 100µs.
	tas.Enqueue(pkt(0, 0), 0)
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
	tas2, _ := NewTAS(twoSliceGCL())
	tas2.Enqueue(pkt(7, 0), 0)
	got := tas2.NextEvent(timebase.VTime(150 * time.Microsecond))
	if want := timebase.VTime(200 * time.Microsecond); got != want {
		t.Errorf("NextEvent wrap = %v, want %v", got, want)
	}
}

func TestTASFIFOWithinClass(t *testing.T) {
	tas, _ := NewTAS(GCL{{Duration: time.Millisecond, Gates: 0xFF}})
	for i := 0; i < 4; i++ {
		p := pkt(2, timebase.VTime(i))
		tas.Enqueue(p, 0)
	}
	dst := make([]*datapath.Packet, 4)
	tas.Dequeue(dst, 0)
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
	tas, _ := NewTAS(gcl)
	dst := make([]*datapath.Packet, 1)
	for i := 0; i < 100; i++ {
		emit := timebase.VTime(i) * timebase.VTime(7*time.Microsecond)
		tas.Enqueue(pkt(7, emit), emit)
		// Cross traffic.
		tas.Enqueue(pkt(0, emit), emit)

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
		if n := tas.Dequeue(dst[:1], now); n != 1 {
			t.Fatalf("iteration %d: class 7 packet not released", i)
		}
		if wait := dst[0].VTime.Sub(emit); wait > gcl.Cycle() {
			t.Fatalf("iteration %d: class-7 wait %v exceeds cycle %v", i, wait, gcl.Cycle())
		}
		// Drain cross traffic.
		for tas.Pending() > 0 {
			now = timebase.Max(now, tas.NextEvent(now))
			tas.Dequeue(dst[:1], now)
		}
	}
}

func BenchmarkTASEnqueueDequeue(b *testing.B) {
	tas, _ := NewTAS(DefaultGCL())
	dst := make([]*datapath.Packet, 32)
	p := pkt(7, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tas.Enqueue(p, 0)
		if i%32 == 31 {
			tas.Dequeue(dst, 0)
		}
	}
}
