// Package sched implements INSANE's packet schedulers (§5.3): the tenant
// scheduler best-effort traffic goes through (WDRR, wdrr.go — with one
// tenant and no gate list it is the paper's default FIFO strategy, which
// forwards packets "as soon as the user code emits them") and a
// Time-Sensitive Networking scheduler implementing the IEEE 802.1Qbv
// time-aware shaper for streams marked time-sensitive (TAS). The runtime
// holds one of each per technology, concretely; each is driven by one
// polling thread at a time and is not safe for concurrent use on its own.
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
	"time"

	"github.com/insane-mw/insane/internal/datapath"
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
// at an instant, and when a set of classes next gets one. The shaper and
// the tenant scheduler each hold one. The zero value has no list and keeps
// every gate open for ever.
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
	if g.gcl == nil {
		return 0xFF
	}
	idx, _ := g.entryAt(now)
	return g.gcl[idx].Gates
}

// nextOpening returns the virtual time of the next gate change that opens
// one of classes, or zero when one of them is open at now already.
func (g *gateClock) nextOpening(now timebase.VTime, classes uint8) timebase.VTime {
	if g.gcl == nil {
		return 0
	}
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

// queued is one packet held by a gated scheduler, with its enqueue time so
// the wait can be charged to the packet's virtual clock on release.
type queued struct {
	pkt *datapath.Packet
	at  timebase.VTime
}

// release hands the packet on at virtual time now: what it waited — for its
// gate or for its turn, both on the scheduler's clock — is added virtual
// latency, charged to the Send stage.
func (e queued) release(now timebase.VTime) *datapath.Packet {
	if wait := now.Sub(e.at); wait > 0 {
		e.pkt.VTime = e.pkt.VTime.Add(wait)
		e.pkt.Breakdown.Send += wait
	}
	return e.pkt
}

// dropFront removes the first take entries of q in place — one compaction
// per visit, however many packets the visit released — and clears the
// vacated tail so the queue does not pin their packets.
func dropFront(q []queued, take int) []queued {
	remaining := copy(q, q[take:])
	//insane:bounded by=zeroes the take entries just popped, take <= len(dst) (the caller's burst)
	for i := remaining; i < len(q); i++ {
		q[i] = queued{}
	}
	return q[:remaining]
}

// TAS is the IEEE 802.1Qbv time-aware shaper: one FIFO queue per traffic
// class, gated by the cycle position, with strict priority (highest class
// first) among simultaneously open gates.
type TAS struct {
	clock  gateClock
	queues [NumClasses][]queued
	count  int
}

// NewTAS returns a shaper driven by the given gate control list.
func NewTAS(gcl GCL) (*TAS, error) {
	clock, err := newGateClock(gcl)
	if err != nil {
		return nil, err
	}
	return &TAS{clock: clock}, nil
}

// Enqueue files the packet under its traffic class, recording when it
// arrived on the scheduler's clock. The packet — its slot and its
// pooled envelope — belongs to the scheduler until Dequeue hands it to
// dispatch.
//
//insane:hotpath
//insane:transfer resource=pooled-obj
//insane:transfer resource=mem-slot
func (t *TAS) Enqueue(p *datapath.Packet, now timebase.VTime) {
	class := p.Class
	if class >= NumClasses {
		class = NumClasses - 1
	}
	//lint:ignore insanevet/hotpathcheck append growth is amortized; class queues reach steady-state capacity
	t.queues[class] = append(t.queues[class], queued{pkt: p, at: now})
	t.count++
}

// GateOpenAt reports whether a traffic class's gate is open at virtual
// time now. Unlike the queue operations it is safe to call concurrently
// with a poller using the shaper: it reads only the gate control list and
// cycle length, both immutable after construction. The run-to-completion
// fast path uses it to honor 802.1Qbv windows without taking the
// scheduler lock.
//
//insane:hotpath
func (t *TAS) GateOpenAt(class uint8, now timebase.VTime) bool {
	return t.clock.gatesAt(now)&classBit(class) != 0
}

// Dequeue drains eligible packets: only classes whose gate is open at now,
// highest class first. A dequeued packet that had to wait for its gate
// carries the wait (now minus its enqueue time, both on the scheduler's
// clock) as added virtual latency.
//
//insane:hotpath
func (t *TAS) Dequeue(dst []*datapath.Packet, now timebase.VTime) int {
	if t.count == 0 || len(dst) == 0 {
		return 0
	}
	gates := t.clock.gatesAt(now)
	n := 0
	for class := NumClasses - 1; class >= 0 && n < len(dst); class-- {
		if gates&(1<<uint(class)) == 0 {
			continue
		}
		q := t.queues[class]
		take := len(q)
		if take > len(dst)-n {
			take = len(dst) - n
		}
		//insane:bounded by=take <= len(dst)-n, the caller's burst buffer
		for i := 0; i < take; i++ {
			dst[n] = q[i].release(now)
			n++
		}
		t.queues[class] = dropFront(q, take)
		t.count -= take
	}
	return n
}

// Pending returns the total queued packets across classes.
func (t *TAS) Pending() int { return t.count }

// NextEvent returns the virtual time of the next gate change that could
// release queued packets, or zero when the queue is empty or some queued
// class is already open.
func (t *TAS) NextEvent(now timebase.VTime) timebase.VTime {
	if t.count == 0 {
		return 0
	}
	var waiting uint8
	for class := range t.queues {
		if len(t.queues[class]) > 0 {
			waiting |= 1 << uint(class)
		}
	}
	return t.clock.nextOpening(now, waiting)
}
