package sched

import (
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// tpkt is a best-effort item of a tenant.
func tpkt(tenant int, class uint8, size int) item {
	return item{Tenant: tenant, Class: class, Len: size}
}

func TestWDRRSingleTenantIsFIFO(t *testing.T) {
	w := newEgress(t, allOpen)
	for i := 0; i < 5; i++ {
		p := tpkt(0, 0, 100)
		p.VTime = timebase.VTime(i)
		enqueue(w, p, 0)
	}
	if w.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", w.Pending())
	}
	dst := make([]item, 3)
	if n := dequeue(w, dst, 0); n != 3 {
		t.Fatalf("Dequeue = %d, want 3", n)
	}
	for i, p := range dst {
		if p.VTime != timebase.VTime(i) {
			t.Errorf("dst[%d].VTime = %v, want %d", i, p.VTime, i)
		}
	}
	rest := make([]item, 8)
	if n := dequeue(w, rest, 0); n != 2 {
		t.Fatalf("final Dequeue = %d, want 2", n)
	}
	if w.NextEvent(0) != 0 {
		t.Error("single-tenant NextEvent must be 0")
	}
}

// TestWDRRFairnessByWeight: two backlogged tenants with weights 1:3
// must share a drain in a ~1:3 packet ratio (equal packet sizes).
func TestWDRRFairnessByWeight(t *testing.T) {
	w := newEgress(t, allOpen, 1, 3)
	const backlog = 400
	for i := 0; i < backlog; i++ {
		enqueue(w, tpkt(0, 0, 1024), 0)
		enqueue(w, tpkt(1, 0, 1024), 0)
	}
	dst := make([]item, 64)
	counts := [2]int{}
	// Drain half the total backlog so both tenants stay backlogged the
	// whole time (fair share only holds while both compete).
	drained := 0
	for drained < backlog {
		n := dequeue(w, dst, 0)
		if n == 0 {
			t.Fatal("backlogged scheduler released nothing")
		}
		for _, p := range dst[:n] {
			counts[p.Tenant]++
		}
		drained += n
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight-3 / weight-1 ratio = %.2f (counts %v), want ~3", ratio, counts)
	}
}

// TestWDRRNoStarvationUnderFlood: a flooding tenant cannot keep a
// one-packet tenant out of a single burst.
func TestWDRRNoStarvationUnderFlood(t *testing.T) {
	w := newEgress(t, allOpen, 1, 1)
	for i := 0; i < 1000; i++ {
		enqueue(w, tpkt(0, 0, 9000), 0)
	}
	enqueue(w, tpkt(1, 0, 100), 0)
	dst := make([]item, 8)
	n := dequeue(w, dst, 0)
	found := false
	for _, p := range dst[:n] {
		if p.Tenant == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("tenant 1's lone packet did not make the first burst")
	}
}

// TestWDRRGateHold: with a GCL, best-effort packets are held during the
// protected window and the wait is charged to the packet's virtual time.
func TestWDRRGateHold(t *testing.T) {
	w := newEgress(t, twoSliceGCL(), 1, 1)
	emit := timebase.VTime(10 * time.Microsecond)
	p := tpkt(0, 0, 100)
	p.VTime = emit
	enqueue(w, p, emit)
	dst := make([]item, 4)

	// Protected window: class-0 gate closed, nothing leaves.
	if n := dequeue(w, dst, timebase.VTime(20*time.Microsecond)); n != 0 {
		t.Fatalf("protected-window dequeue = %d, want 0", n)
	}
	// NextEvent points at the gate opening (100µs).
	if got, want := w.NextEvent(timebase.VTime(20*time.Microsecond)), timebase.VTime(100*time.Microsecond); got != want {
		t.Fatalf("NextEvent = %v, want %v", got, want)
	}
	// Open window: released, wait charged to VTime and the Send stage.
	now := timebase.VTime(120 * time.Microsecond)
	if n := dequeue(w, dst, now); n != 1 {
		t.Fatal("packet not released in open window")
	}
	if dst[0].VTime != now {
		t.Errorf("vtime = %v, want %v (emit + gate wait)", dst[0].VTime, now)
	}
	if dst[0].Send != now.Sub(emit) {
		t.Errorf("Send stage = %v, want %v", dst[0].Send, now.Sub(emit))
	}
}

// TestWDRRGatedTenantDoesNotBlockOpenTenant: tenant 0's class-0 backlog
// is gated during the protected window, but tenant 1's class-7 packets
// still flow.
func TestWDRRGatedTenantDoesNotBlockOpenTenant(t *testing.T) {
	w := newEgress(t, twoSliceGCL(), 1, 1)
	for i := 0; i < 10; i++ {
		enqueue(w, tpkt(0, 0, 500), 0)
	}
	enqueue(w, tpkt(1, 7, 500), 0)
	dst := make([]item, 8)
	n := dequeue(w, dst, timebase.VTime(10*time.Microsecond))
	if n != 1 || dst[0].Tenant != 1 {
		t.Fatalf("protected window released %d (first tenant %d), want exactly tenant 1's packet", n, dst[0].Tenant)
	}
	if w.Pending() != 10 {
		t.Errorf("Pending = %d, want 10 gated packets", w.Pending())
	}
}

func TestWDRRUnknownTenantFallsBack(t *testing.T) {
	w := newEgress(t, allOpen, 1, 1)
	enqueue(w, tpkt(42, 0, 100), 0) // out-of-range tenant index → queue 0
	dst := make([]item, 1)
	if n := dequeue(w, dst, 0); n != 1 {
		t.Fatal("out-of-range tenant packet lost")
	}
	if w.Pending() != 0 {
		t.Error("fallback queue not drained")
	}
}

func BenchmarkWDRREnqueueDequeue(b *testing.B) {
	w := newEgress(b, allOpen, 4, 1)
	dst := make([]item, 32)
	waits := make([]time.Duration, 32)
	p := tpkt(0, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Tenant = i & 1
		enqueue(w, p, 0)
		if i%32 == 31 {
			w.Dequeue(dst, waits, 0)
		}
	}
}
