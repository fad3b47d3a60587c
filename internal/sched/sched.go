// Package sched implements INSANE's packet scheduler (§5.3): one egress
// scheduler per technology, Egress, in two tiers. Streams marked
// time-sensitive go through the IEEE 802.1Qbv time-aware shaper; best-effort
// traffic goes through a weighted deficit round-robin between tenants
// (wdrr.go), which with one tenant is the paper's default FIFO strategy and
// forwards packets "as soon as the user code emits them". The shaper is
// served first. An Egress is driven by one polling thread at a time and is
// not safe for concurrent use, except for Pending and GateOpenAt.
//
// It is generic over what it queues and holds it by value: Enqueue is told
// the element's timing, tenant index, traffic class and byte length, and
// Dequeue copies the released elements into the caller's vector, with how
// long each waited beside it. The scheduler never looks inside an element,
// so the package knows nothing of the datapath's packet or the runtime's
// token.
//
// The 802.1Qbv shaper divides time into a repeating cycle described by a
// gate control list (GCL): each entry opens a subset of the eight traffic
// classes for a slice of the cycle. A packet may only leave while its
// class's gate is open, which bounds the interference lower-priority
// traffic can impose on a time-critical flow — the deterministic behaviour
// the paper targets for edge soft real-time applications.
package sched

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// NumClasses is the number of 802.1Qbv traffic classes.
const NumClasses = 8

// GCLEntry is one slice of the 802.1Qbv cycle.
type GCLEntry struct {
	// Duration is the length of the slice.
	Duration time.Duration
	// Gates is a bitmask of open traffic classes (bit i = class i).
	Gates uint8
}

// GCL is a gate control list: a full cycle of gate states.
type GCL []GCLEntry

// Validate checks that the list describes a usable cycle.
func (g GCL) Validate() error {
	if len(g) == 0 {
		return fmt.Errorf("sched: empty gate control list")
	}
	for i, e := range g {
		if e.Duration <= 0 {
			return fmt.Errorf("sched: GCL entry %d has non-positive duration", i)
		}
	}
	var anyOpen uint8
	for _, e := range g {
		anyOpen |= e.Gates
	}
	if anyOpen == 0 {
		return fmt.Errorf("sched: no gate ever opens")
	}
	return nil
}

// Cycle returns the total cycle duration.
func (g GCL) Cycle() time.Duration {
	var d time.Duration
	for _, e := range g {
		d += e.Duration
	}
	return d
}

// DefaultGCL returns a two-slice cycle commonly used in industrial TSN
// profiles: a protected window for class 7 (time-critical traffic)
// followed by an open window for everything else. Cycle length follows the
// typical 802.1Qbv isochronous cycle of industrial deployments.
func DefaultGCL() GCL {
	return GCL{
		{Duration: 50 * time.Microsecond, Gates: 1 << 7},
		{Duration: 200 * time.Microsecond, Gates: 0x7F},
	}
}

// gateClock tells the time on one gate control list: which gates are open
// at an instant, and when a set of classes next gets one.
type gateClock struct {
	gcl   GCL
	cycle time.Duration // gcl.Cycle(), summed once
}

// newGateClock validates gcl and returns its clock.
func newGateClock(gcl GCL) (gateClock, error) {
	if err := gcl.Validate(); err != nil {
		return gateClock{}, err
	}
	return gateClock{gcl: gcl, cycle: gcl.Cycle()}, nil
}

// entryAt locates the list entry in force at virtual time now, returning
// its index and how far into it now falls.
func (g *gateClock) entryAt(now timebase.VTime) (int, time.Duration) {
	pos := time.Duration(now) % g.cycle
	//insane:bounded by=one pass over the gate-control list, fixed at construction by Validate
	for i, e := range g.gcl {
		if pos < e.Duration {
			return i, pos
		}
		pos -= e.Duration
	}
	return len(g.gcl) - 1, g.gcl[len(g.gcl)-1].Duration // unreachable: pos < cycle by construction
}

// gatesAt returns the open-gate mask at virtual time now.
func (g *gateClock) gatesAt(now timebase.VTime) uint8 {
	idx, _ := g.entryAt(now)
	return g.gcl[idx].Gates
}

// nextOpening returns the virtual time of the next gate change that opens
// one of classes, or zero when one of them is open at now already (or
// classes is empty).
func (g *gateClock) nextOpening(now timebase.VTime, classes uint8) timebase.VTime {
	idx, off := g.entryAt(now)
	if g.gcl[idx].Gates&classes != 0 {
		return 0 // something is eligible right now
	}
	// Walk entry boundaries forward from the current cycle position until
	// an entry opens one of the classes.
	elapsed := g.gcl[idx].Duration - off // time to the end of this entry
	//insane:bounded by=one pass over the gate-control list, fixed at construction by Validate
	for i := 1; i <= len(g.gcl); i++ {
		e := g.gcl[(idx+i)%len(g.gcl)]
		if e.Gates&classes != 0 {
			return now.Add(elapsed)
		}
		elapsed += e.Duration
	}
	return 0 // no gate ever opens for these classes (prevented by Validate)
}

// classBit returns a packet's traffic class as a gate-mask bit; classes
// above the highest share its gate.
//
//insane:hotpath
func classBit(class uint8) uint8 {
	if class >= NumClasses {
		class = NumClasses - 1
	}
	return 1 << class
}

// entry is one queued element with what the scheduler needs to know about
// it: the traffic class that gates it, the byte length that prices it, and
// when it arrived on the scheduler's clock, so the wait can be reported on
// release.
type entry[T any] struct {
	v     T
	at    timebase.VTime
	size  int32
	class uint8
}

// fifo is a queue of entries popped by head index: a visit that releases k
// entries costs O(k) however deep the backlog behind them is. The dead
// prefix is reclaimed when the queue empties, or by one compaction once it
// passes half the capacity — at least that many entries were released since
// the last one, so the copy is amortized O(1) per entry.
type fifo[T any] struct {
	q    []entry[T]
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }

// at returns the i-th live entry, 0 being the head.
func (f *fifo[T]) at(i int) *entry[T] { return &f.q[f.head+i] }

//insane:hotpath
func (f *fifo[T]) push(e entry[T]) {
	//lint:ignore insanevet/hotpathcheck append growth is amortized; queues reach steady-state capacity
	f.q = append(f.q, e)
}

// release copies the i-th live entry's element into dst and returns how
// long it waited on the scheduler's clock, for its gate or for its turn;
// the entry stays queued until drop.
//
//insane:hotpath
func (f *fifo[T]) release(i int, dst *T, now timebase.VTime) time.Duration {
	e := f.at(i)
	*dst = e.v
	if wait := now.Sub(e.at); wait > 0 {
		return wait
	}
	return 0
}

// drop removes the first take entries, clearing them so the queue does not
// pin what their elements point to.
//
//insane:hotpath
func (f *fifo[T]) drop(take int) {
	clear(f.q[f.head : f.head+take])
	f.head += take
	switch {
	case f.head == len(f.q):
		f.q, f.head = f.q[:0], 0
	case f.head > cap(f.q)/2:
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
}

// Egress is one technology's egress scheduler. Time-sensitive elements go to
// the 802.1Qbv shaper: one FIFO per traffic class, gated by the cycle
// position, strict priority (highest class first) among open gates.
// Best-effort elements go to one FIFO per tenant, served by weighted deficit
// round-robin. Dequeue serves the shaper first, so a burst never fills up
// with best-effort traffic while a gate-open time-sensitive element waits.
//
// Best-effort heads are gated by the same list exactly when there is more
// than one tenant queue: holding them through the protected windows is the
// timing isolation between tenants (DESIGN.md §12), and with one tenant
// there is nobody to isolate, so plain traffic does not pay the protected
// windows' latency.
type Egress[T any] struct {
	clock gateClock
	// classes are the shaper's queues; shaped counts what they hold.
	classes [NumClasses]fifo[T]
	shaped  int
	// tenants are the round-robin's queues, one per tenant; next is its
	// cursor.
	tenants []wdrrQueue[T]
	next    int
	// count is every element held, in both tiers. It moves only inside
	// Enqueue and Dequeue, so under the caller's lock, and is read without
	// it: zero means there is nothing to dequeue and no gate to wait for.
	count atomic.Int64
}

// NewEgress returns an egress scheduler driven by the gate control list gcl,
// with one best-effort queue per weight entry (weight i serves tenant index
// i; entries below 1 count as 1). No weights is one tenant of weight 1:
// plain FIFO.
func NewEgress[T any](gcl GCL, weights []int) (*Egress[T], error) {
	clock, err := newGateClock(gcl)
	if err != nil {
		return nil, err
	}
	if len(weights) == 0 {
		weights = []int{1}
	}
	e := &Egress[T]{clock: clock, tenants: make([]wdrrQueue[T], len(weights))}
	for i, wt := range weights {
		e.tenants[i].quantum = int64(max(wt, 1)) * wdrrQuantumUnit
	}
	return e, nil
}

// Enqueue files v — size bytes of traffic class class from tenant index
// tenant — with the shaper when timeSensitive, else with its tenant's queue,
// recording when it arrived on the scheduler's clock. Classes above the
// highest share its queue; an unknown tenant index (a stale element after a
// reconfiguration) falls back to queue 0. Whatever v carries — a memory
// slot, a tenant charge — belongs to the scheduler until Dequeue hands it
// back.
//
//insane:hotpath
//insane:transfer resource=mem-slot
func (e *Egress[T]) Enqueue(v T, timeSensitive bool, tenant int, class uint8, size int, now timebase.VTime) {
	en := entry[T]{v: v, at: now, size: int32(size), class: class}
	if timeSensitive {
		e.classes[min(class, NumClasses-1)].push(en)
		e.shaped++
	} else {
		if tenant < 0 || tenant >= len(e.tenants) {
			tenant = 0
		}
		e.tenants[tenant].push(en)
	}
	e.count.Add(1)
}

// GateOpenAt reports whether a traffic class's gate is open at virtual
// time now. Unlike the queue operations it is safe to call concurrently
// with a poller using the scheduler: it reads only the gate control list
// and cycle length, both immutable after construction. The
// run-to-completion fast path uses it to honor 802.1Qbv windows without
// taking the scheduler lock.
//
//insane:hotpath
func (e *Egress[T]) GateOpenAt(class uint8, now timebase.VTime) bool {
	return e.clock.gatesAt(now)&classBit(class) != 0
}

// Dequeue fills dst with the elements eligible at now: gate-open shaper
// classes first, by strict priority, then the tenant round-robin fills the
// room left. waits[i] receives what dst[i] waited for its gate or its turn
// (now minus its enqueue time, both on the scheduler's clock): added
// virtual latency the caller charges to the Send stage. waits must be at
// least as long as dst.
//
//insane:hotpath
func (e *Egress[T]) Dequeue(dst []T, waits []time.Duration, now timebase.VTime) int {
	held := int(e.count.Load())
	if held == 0 || len(dst) == 0 {
		return 0
	}
	var gates uint8
	if e.shaped > 0 || len(e.tenants) > 1 {
		gates = e.clock.gatesAt(now)
	}
	n := e.dequeueShaper(dst, waits, gates, now)
	if len(e.tenants) == 1 {
		gates = 0xFF // best effort is gated only between tenants
	}
	n += e.dequeueTenants(dst[n:], waits[n:], gates, held-n-e.shaped, now)
	if n > 0 {
		e.count.Add(-int64(n))
	}
	return n
}

// dequeueShaper releases shaper elements into dst: only classes open in
// gates, highest class first.
//
//insane:hotpath
func (e *Egress[T]) dequeueShaper(dst []T, waits []time.Duration, gates uint8, now timebase.VTime) int {
	n := 0
	for class := NumClasses - 1; class >= 0 && n < len(dst) && e.shaped > 0; class-- {
		if gates&(1<<uint(class)) == 0 {
			continue
		}
		q := &e.classes[class]
		take := min(q.len(), len(dst)-n)
		//insane:bounded by=take <= len(dst)-n, the caller's burst buffer
		for i := 0; i < take; i++ {
			waits[n] = q.release(i, &dst[n], now)
			n++
		}
		q.drop(take)
		e.shaped -= take
	}
	return n
}

// Pending returns the elements held in both tiers. Unlike the queue
// operations it may be read concurrently with a poller using the scheduler.
func (e *Egress[T]) Pending() int { return int(e.count.Load()) }

// NextEvent returns zero when some held head is eligible at now (or nothing
// is held), and otherwise the virtual time of the earliest gate opening that
// releases one.
func (e *Egress[T]) NextEvent(now timebase.VTime) timebase.VTime {
	var waiting uint8
	if e.shaped > 0 {
		for class := range e.classes {
			if e.classes[class].len() > 0 {
				waiting |= 1 << uint(class)
			}
		}
	}
	//insane:bounded by=one entry per declared tenant, fixed at construction
	for i := range e.tenants {
		if e.tenants[i].len() == 0 {
			continue
		}
		if len(e.tenants) == 1 {
			return 0 // an ungated head is always eligible
		}
		waiting |= classBit(e.tenants[i].at(0).class)
	}
	return e.clock.nextOpening(now, waiting)
}
