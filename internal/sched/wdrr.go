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

	"github.com/insane-mw/insane/internal/datapath"
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
type wdrrQueue struct {
	q       []queued
	deficit int64
	quantum int64
}

// WDRR is the weighted deficit round-robin tenant scheduler. Like the
// other schedulers it is driven by one polling thread at a time
// (techState.schedMu serializes multi-poller access).
type WDRR struct {
	queues []wdrrQueue
	count  int
	next   int // round-robin cursor

	// clock enforces the 802.1Qbv gates; without a gate control list every
	// gate is permanently open (single-tenant compatibility mode).
	clock gateClock
}

// NewWDRR builds a scheduler with one queue per weight entry (weight
// i serves tenant index i; entries < 1 are clamped to 1). An empty
// weight list yields a single queue of weight 1 — plain FIFO. A non-nil
// gcl arms gate enforcement for every class.
func NewWDRR(weights []int, gcl GCL) (*WDRR, error) {
	if len(weights) == 0 {
		weights = []int{1}
	}
	w := &WDRR{queues: make([]wdrrQueue, len(weights))}
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

// Tenants returns the number of tenant queues.
func (w *WDRR) Tenants() int { return len(w.queues) }

// Enqueue files the packet under its tenant's queue, recording when it
// arrived on the scheduler's clock. Unknown tenant indexes (a stale
// packet after a reconfiguration) fall back to queue 0. The packet —
// its slot and its pooled envelope — belongs to the scheduler until
// Dequeue hands it to dispatch.
//
//insane:hotpath
//insane:transfer resource=pooled-obj
//insane:transfer resource=mem-slot
func (w *WDRR) Enqueue(p *datapath.Packet, now timebase.VTime) {
	ti := int(p.Tenant)
	if ti >= len(w.queues) {
		ti = 0
	}
	//lint:ignore insanevet/hotpathcheck append growth is amortized; tenant queues reach steady-state capacity
	w.queues[ti].q = append(w.queues[ti].q, queued{pkt: p, at: now})
	w.count++
}

// cost is the deficit charge of releasing one packet: its byte length,
// floored at a minimum-frame cost so zero-length control packets still
// consume bandwidth share.
func cost(p *datapath.Packet) int64 {
	c := int64(p.Len)
	if c < 64 {
		c = 64
	}
	return c
}

// Dequeue fills dst with eligible packets, visiting tenant queues round-
// robin and releasing up to one quantum's worth of bytes per visit. A
// released packet that waited (for its turn or its gate) carries the
// wait as added virtual latency, like the time-aware shaper's.
//
//insane:hotpath
func (w *WDRR) Dequeue(dst []*datapath.Packet, now timebase.VTime) int {
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
		if len(qu.q) == 0 {
			// An empty queue carries no deficit into its next busy period
			// (DRR: credit only accumulates while backlogged).
			qu.deficit = 0
			idle++
			continue
		}
		if gates&classBit(qu.q[0].pkt.Class) == 0 {
			// Head-of-line gate closed: the whole queue waits (releasing
			// later arrivals would break per-tenant FIFO). No quantum is
			// added, so a gated tenant banks no credit either.
			idle++
			continue
		}
		qu.deficit += qu.quantum
		take := 0
		//insane:bounded by=released bytes bounded by the visit's deficit (one quantum over previous remainder); at most len(dst)-n packets
		for take < len(qu.q) && n < len(dst) {
			e := qu.q[take]
			if gates&classBit(e.pkt.Class) == 0 {
				break
			}
			c := cost(e.pkt)
			if c > qu.deficit {
				break
			}
			qu.deficit -= c
			dst[n] = e.release(now)
			n++
			take++
		}
		if take > 0 {
			qu.q = dropFront(qu.q, take)
			w.count -= take
			idle = 0
		} else {
			// Quantum >= max packet cost, so a zero-release visit means the
			// burst buffer filled or the head's gate closed mid-queue.
			idle++
		}
		if len(qu.q) == 0 {
			qu.deficit = 0
		}
	}
	return n
}

// Pending returns the total queued packets across tenants.
func (w *WDRR) Pending() int { return w.count }

// PendingTenant returns one tenant queue's depth (exporter gauge).
func (w *WDRR) PendingTenant(tenant int) int {
	if tenant < 0 || tenant >= len(w.queues) {
		return 0
	}
	return len(w.queues[tenant].q)
}

// NextEvent returns the virtual time of the next gate change that could
// release queued packets, or zero when the queue is empty or some queued
// head is already eligible.
func (w *WDRR) NextEvent(now timebase.VTime) timebase.VTime {
	if w.count == 0 {
		return 0
	}
	var waiting uint8
	//insane:bounded by=one entry per declared tenant, fixed at construction
	for i := range w.queues {
		if len(w.queues[i].q) > 0 {
			waiting |= classBit(w.queues[i].q[0].pkt.Class)
		}
	}
	return w.clock.nextOpening(now, waiting)
}

// String identifies the scheduler in Inspect output.
func (w *WDRR) String() string {
	return fmt.Sprintf("wdrr(%d tenants, gated=%v)", len(w.queues), w.clock.gcl != nil)
}
