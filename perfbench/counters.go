//go:build perfbench

package main

import (
	"fmt"
	"time"

	"github.com/insane-mw/insane/insane"
)

// count names one monotonic reading of Node.Metrics(): an event count, or
// the sample count or sum (count x mean) of a histogram.
type count int

const (
	cEmits count = iota
	cEmitBackpressure
	cSchedEnqueues
	cDispatches
	cTx
	cRx
	cLocal
	cRTC
	cRTCFallbacks
	cNoSink
	cRingFull
	cDowngrades
	cConsumes
	cPoolGets
	cPoolFailures
	cPoolReleases
	cEnvHits
	cEnvRefills
	cEnvMisses
	cQuotaRejects
	cBatchN
	cBatchSum
	cOccupancyN
	cOccupancySum
	cDwellN
	cDwellSum
	numCounts
)

// counters is the part of Node.Metrics() the benchmark reads, summed over
// the nodes of the cluster. The counts only grow, so the difference of
// two snapshots describes the interval between them; all stay far below
// 2^53, so float64 holds them exactly.
type counters struct {
	n [numCounts]float64
	gauges
}

// gauges are instantaneous readings: they are compared, not subtracted.
type gauges struct {
	freeSlots  int
	schedDepth uint64
	memUsed    int64 // largest tenant slot charge
	txInflight int64 // largest tenant TX token charge
}

func snapshot(nodes []*insane.Node) counters {
	var c counters
	add := func(k count, v uint64) { c.n[k] += float64(v) }
	for _, n := range nodes {
		m := n.Metrics()
		add(cEmits, m.Emits)
		add(cEmitBackpressure, m.EmitBackpressure)
		add(cSchedEnqueues, m.SchedEnqueues)
		add(cDispatches, m.Dispatches)
		add(cTx, m.TxMessages)
		add(cRx, m.RxMessages)
		add(cLocal, m.LocalDeliveries)
		add(cRTC, m.RTCDeliveries)
		add(cRTCFallbacks, m.RTCFallbacks)
		add(cNoSink, m.DroppedNoSink)
		add(cRingFull, m.DroppedBackpressure)
		add(cDowngrades, m.TechDowngrades)
		add(cConsumes, m.Consumes)
		add(cPoolGets, m.Mempool.Gets)
		add(cPoolFailures, m.Mempool.Failures)
		add(cPoolReleases, m.Mempool.Releases)
		add(cEnvHits, m.EnvCache.Hits)
		add(cEnvRefills, m.EnvCache.Refills)
		add(cEnvMisses, m.EnvCache.Misses)
		add(cBatchN, m.DispatchBatch.Count)
		c.n[cBatchSum] += float64(m.DispatchBatch.Count) * m.DispatchBatch.Mean
		add(cOccupancyN, m.TxRingOccupancy.Count)
		c.n[cOccupancySum] += float64(m.TxRingOccupancy.Count) * m.TxRingOccupancy.Mean
		add(cDwellN, m.SchedDwell.Count)
		c.n[cDwellSum] += float64(m.SchedDwell.Count) * float64(m.SchedDwell.Mean)
		for _, cl := range m.Mempool.Classes {
			c.freeSlots += cl.Free
		}
		c.schedDepth += m.SchedQueueDepth
		for _, t := range m.Tenants {
			add(cQuotaRejects, t.QuotaRejects)
			c.memUsed = max(c.memUsed, t.MemUsed)
			c.txInflight = max(c.txInflight, t.TxInflight)
		}
	}
	return c
}

// since returns the growth of every count from earlier to c; the gauges
// are c's own.
func (c counters) since(earlier counters) counters {
	for k := range c.n {
		c.n[k] -= earlier.n[k]
	}
	return c
}

// plus adds the counts of other to c's.
func (c counters) plus(other counters) counters {
	for k := range c.n {
		c.n[k] += other.n[k]
	}
	return c
}

// extremes keeps the worst gauge readings seen with messages in flight.
type extremes struct {
	seen bool
	gauges
}

func (e *extremes) observe(g gauges) {
	if !e.seen {
		e.seen, e.gauges = true, g
		return
	}
	e.freeSlots = min(e.freeSlots, g.freeSlots)
	e.schedDepth = max(e.schedDepth, g.schedDepth)
	e.memUsed = max(e.memUsed, g.memUsed)
	e.txInflight = max(e.txInflight, g.txInflight)
}

// conservation checks, at a moment when nothing is in flight, that every
// message the runtime accepted was consumed by every sink or counted as
// dropped, and that the runtime accepted exactly what the harness sent.
func conservation(d counters, sent uint64, fanout int) []string {
	var notes []string
	emits := d.n[cEmits]
	if emits != float64(sent) {
		notes = append(notes, fmt.Sprintf("conservation: runtime counted %.0f emits, harness had %d accepted", emits, sent))
	}
	if want, got := emits*float64(fanout), d.n[cConsumes]+d.n[cNoSink]+d.n[cRingFull]; want != got {
		notes = append(notes, fmt.Sprintf("conservation: %.0f emits x %d sinks = %.0f, but %.0f consumed + %.0f dropped (no sink) + %.0f dropped (ring full) = %.0f",
			emits, fanout, want, d.n[cConsumes], d.n[cNoSink], d.n[cRingFull], got))
	}
	return notes
}

// settled waits until every slot is back in the pools and every tenant's
// charges are zero after the sessions closed, and reports what is not.
func (r *rig) settled() []string {
	var notes []string
	deadline := time.Now().Add(2 * time.Second)
	for {
		notes = notes[:0]
		for i, n := range r.nodes {
			m := n.Metrics()
			for j, cl := range m.Mempool.Classes {
				if cl.Free != r.freeAtStart[i][j] {
					notes = append(notes, fmt.Sprintf("node %s: %d of the %d-byte slots free after the sessions closed, %d before they opened",
						n.Name(), cl.Free, cl.SlotSize, r.freeAtStart[i][j]))
				}
			}
			for _, t := range m.Tenants {
				if t.MemUsed != 0 || t.TxInflight != 0 {
					notes = append(notes, fmt.Sprintf("node %s: tenant %s still holds %d slots and %d TX tokens after its sessions closed",
						n.Name(), t.Tenant, t.MemUsed, t.TxInflight))
				}
			}
		}
		if len(notes) == 0 || time.Now().After(deadline) {
			return notes
		}
		time.Sleep(time.Millisecond)
	}
}
