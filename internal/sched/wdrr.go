// Weighted deficit round-robin between tenants (DESIGN.md §12): the
// egress's best-effort tier. One shared FIFO per technology would let a
// single flooding tenant enqueue an arbitrarily long head-of-line backlog in
// front of everyone else; instead each tenant has its own queue and the
// queues are served in a deficit round-robin (Shreedhar & Varghese), so each
// tenant's share of the egress is proportional to its configured weight
// regardless of how hard any other tenant pushes. Within one tenant,
// arrival order is preserved — a single-tenant runtime (the default) is a
// plain FIFO exactly.
//
// Between tenants the tier is gate-aware: it holds a packet while its
// traffic class's 802.1Qbv gate is closed, extending the time-aware
// shaper's protected windows to best-effort traffic. That is the
// timing-isolation half of tenant isolation — during a protected window the
// egress is reserved for the time-critical classes, so a best-effort tenant
// flooding the node cannot put even one packet in front of a time-sensitive
// tenant's.

package sched

import (
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// wdrrQuantumUnit is the per-weight-unit byte quantum added to a tenant
// queue's deficit at each round-robin visit. It is sized above the
// largest slot class (jumbo 9216B), which guarantees every visit to a
// non-empty, gate-open queue releases at least one packet — the property
// that bounds dequeueTenants' per-packet work (hotpathcheck) and keeps
// DRR's O(1) amortized cost.
const wdrrQuantumUnit = 16384

// wdrrQueue is one tenant's FIFO plus its deficit counter state.
type wdrrQueue[T any] struct {
	fifo[T]
	deficit int64
	quantum int64
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

// dequeueTenants fills dst with best-effort elements whose class is open in
// gates, visiting tenant queues round-robin and releasing up to one
// quantum's worth of bytes per visit. held is how many elements the tenant
// queues hold.
//
//insane:hotpath
func (e *Egress[T]) dequeueTenants(dst []T, waits []time.Duration, gates uint8, held int, now timebase.VTime) int {
	n := 0
	idle := 0
	//insane:bounded by=each visit either releases a packet (n < len(dst), the caller's burst) or advances idle (reset on release, capped at the tenant count)
	for n < len(dst) && idle < len(e.tenants) && held > 0 {
		qu := &e.tenants[e.next]
		e.next++
		if e.next == len(e.tenants) {
			e.next = 0
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
			en := qu.at(take)
			if gates&classBit(en.class) == 0 {
				break
			}
			c := en.cost()
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
			held -= take
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
