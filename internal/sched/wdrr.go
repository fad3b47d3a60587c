// Weighted deficit round-robin between tenants (DESIGN.md §12). The
// runtime's best-effort traffic used to share one FIFO per technology;
// under multi-tenant load that lets a single flooding tenant enqueue an
// arbitrarily long head-of-line backlog in front of everyone else. WDRR
// replaces the FIFO with one queue per tenant and serves the queues in a
// deficit round-robin (Shreedhar & Varghese), so each tenant's share of
// the egress is proportional to its configured weight regardless of how
// hard any other tenant pushes. Within one tenant, arrival order is
// preserved — a single-tenant runtime (the default) degenerates to the
// old FIFO behaviour exactly.
//
// The scheduler is optionally gate-aware: when constructed with a gate
// control list it holds a packet while its traffic class's 802.1Qbv gate
// is closed, extending the time-aware shaper's protected windows to
// best-effort traffic. That is the timing-isolation half of tenant
// isolation — during a protected window the egress is reserved for the
// time-critical classes, so a best-effort tenant flooding the node
// cannot put even one packet in front of a time-sensitive tenant's.

package sched

import (
	"fmt"
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// wdrrQuantumUnit is the per-weight-unit byte quantum added to a tenant
// queue's deficit at each round-robin visit. It is sized above the
// largest slot class (jumbo 9216B), which guarantees every visit to a
// non-empty, gate-open queue releases at least one packet — the property
// that bounds Dequeue's per-packet work (boundedcheck) and keeps DRR's
// O(1) amortized cost.
const wdrrQuantumUnit = 16384

// wdrrQueue is one tenant's FIFO plus its deficit counter state.
type wdrrQueue[T any] struct {
	fifo[T]
	deficit int64
	quantum int64
}

// WDRR is the weighted deficit round-robin tenant scheduler. Like the
// shaper it holds its elements by value, knows only what Enqueue is told
// about them, and is driven by one polling thread at a time
// (techState.schedMu serializes multi-poller access).
type WDRR[T any] struct {
	queues []wdrrQueue[T]
	count  int
	next   int // round-robin cursor

	// clock enforces the 802.1Qbv gates; without a gate control list every
	// gate is permanently open (no tenant declared: nobody to isolate).
	clock gateClock
}

// NewWDRR builds a scheduler with one queue per weight entry (weight
// i serves tenant index i; entries < 1 are clamped to 1). An empty
// weight list yields a single queue of weight 1 — plain FIFO. A non-nil
// gcl arms gate enforcement for every class.
func NewWDRR[T any](weights []int, gcl GCL) (*WDRR[T], error) {
	if len(weights) == 0 {
		weights = []int{1}
	}
	w := &WDRR[T]{queues: make([]wdrrQueue[T], len(weights))}
	for i, wt := range weights {
		if wt < 1 {
			wt = 1
		}
		w.queues[i].quantum = int64(wt) * wdrrQuantumUnit
	}
	if gcl != nil {
		var err error
		if w.clock, err = newGateClock(gcl); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Enqueue files v — size bytes of traffic class class — under its
// tenant's queue, recording when it arrived on the scheduler's clock.
// Unknown tenant indexes (a stale packet after a reconfiguration) fall
// back to queue 0. Whatever v carries — a memory slot, a tenant charge —
// belongs to the scheduler until Dequeue hands it back.
//
//insane:hotpath
//insane:transfer resource=mem-slot
func (w *WDRR[T]) Enqueue(v T, tenant int, class uint8, size int, now timebase.VTime) {
	if tenant < 0 || tenant >= len(w.queues) {
		tenant = 0
	}
	w.queues[tenant].push(entry[T]{v: v, at: now, size: int32(size), class: class})
	w.count++
}

// cost is the deficit charge of releasing one packet: its byte length,
// floored at a minimum-frame cost so zero-length control packets still
// consume bandwidth share.
func (e *entry[T]) cost() int64 {
	c := int64(e.size)
	if c < 64 {
		c = 64
	}
	return c
}

// Dequeue fills dst with eligible elements, visiting tenant queues round-
// robin and releasing up to one quantum's worth of bytes per visit.
// waits[i] receives what dst[i] waited (for its turn or its gate), like
// the time-aware shaper's; waits must be at least as long as dst.
//
//insane:hotpath
func (w *WDRR[T]) Dequeue(dst []T, waits []time.Duration, now timebase.VTime) int {
	if w.count == 0 || len(dst) == 0 {
		return 0
	}
	gates := w.clock.gatesAt(now)
	n := 0
	idle := 0
	//insane:bounded by=each visit either releases a packet (n < len(dst), the caller's burst) or advances idle (reset on release, capped at the tenant count)
	for n < len(dst) && idle < len(w.queues) && w.count > 0 {
		qu := &w.queues[w.next]
		w.next++
		if w.next == len(w.queues) {
			w.next = 0
		}
		if qu.len() == 0 {
			// An empty queue carries no deficit into its next busy period
			// (DRR: credit only accumulates while backlogged).
			qu.deficit = 0
			idle++
			continue
		}
		if gates&classBit(qu.at(0).class) == 0 {
			// Head-of-line gate closed: the whole queue waits (releasing
			// later arrivals would break per-tenant FIFO). No quantum is
			// added, so a gated tenant banks no credit either.
			idle++
			continue
		}
		qu.deficit += qu.quantum
		take := 0
		//insane:bounded by=released bytes bounded by the visit's deficit (one quantum over previous remainder); at most len(dst)-n packets
		for take < qu.len() && n < len(dst) {
			e := qu.at(take)
			if gates&classBit(e.class) == 0 {
				break
			}
			c := e.cost()
			if c > qu.deficit {
				break
			}
			qu.deficit -= c
			waits[n] = qu.release(take, &dst[n], now)
			n++
			take++
		}
		if take > 0 {
			qu.drop(take)
			w.count -= take
			idle = 0
		} else {
			// Quantum >= max packet cost, so a zero-release visit means the
			// burst buffer filled or the head's gate closed mid-queue.
			idle++
		}
		if qu.len() == 0 {
			qu.deficit = 0
		}
	}
	return n
}

// Pending returns the total queued elements across tenants.
func (w *WDRR[T]) Pending() int { return w.count }

// PendingTenant returns one tenant queue's depth (exporter gauge).
func (w *WDRR[T]) PendingTenant(tenant int) int {
	if tenant < 0 || tenant >= len(w.queues) {
		return 0
	}
	return w.queues[tenant].len()
}

// NextEvent returns the virtual time of the next gate change that could
// release queued elements, or zero when the queue is empty or some queued
// head is already eligible.
func (w *WDRR[T]) NextEvent(now timebase.VTime) timebase.VTime {
	if w.count == 0 {
		return 0
	}
	var waiting uint8
	//insane:bounded by=one entry per declared tenant, fixed at construction
	for i := range w.queues {
		if w.queues[i].len() > 0 {
			waiting |= classBit(w.queues[i].at(0).class)
		}
	}
	return w.clock.nextOpening(now, waiting)
}

// String identifies the scheduler in Inspect output.
func (w *WDRR[T]) String() string {
	return fmt.Sprintf("wdrr(%d tenants, gated=%v)", len(w.queues), w.clock.gcl != nil)
}
