package insane

import (
	"time"

	"github.com/insane-mw/insane/internal/telemetry"
)

// LatencyStats summarizes one latency histogram of a node: wall-clock
// intervals between two readings of the node's own clock, sampled 1-in-64
// per source (every message on time-sensitive streams, none on a stream
// created WithTelemetry(false)). Quantiles are upper bounds from a
// log-linear histogram with at most ~12% relative error per bucket.
type LatencyStats struct {
	// Count is how many samples were taken — not how many messages
	// passed: rates come from the counters.
	Count uint64
	// Mean is the arithmetic mean latency.
	Mean time.Duration
	// P50, P90, P99, P999 are latency quantile upper bounds; P999 is the
	// tail the timing-isolation guarantee (§12) is stated against.
	P50, P90, P99, P999 time.Duration
	// Max is an upper bound of the largest observation.
	Max time.Duration
}

// DistStats summarizes a dimensionless distribution (queue occupancies,
// batch sizes).
type DistStats struct {
	Count         uint64
	Mean          float64
	P50, P99, Max uint64
}

// MempoolClass is one slot size class of the node's memory manager.
type MempoolClass struct {
	// SlotSize is the usable bytes per slot.
	SlotSize int
	// Capacity and Free are the configured and currently free slot
	// counts. Committed counts the slots whose memory is allocated: a
	// class commits chunks of slots as traffic first needs them and keeps
	// them, so it is the most the class has held at once, rounded up to a
	// chunk.
	Capacity, Free, Committed int
}

// MempoolMetrics reports the memory manager's activity: Gets/Failures
// mirror the hit/miss behaviour of the zero-copy pools, and exhaustion
// (Failures) is the backpressure signal of the slot-recycling design.
type MempoolMetrics struct {
	Gets, Failures, Releases uint64
	Classes                  []MempoolClass
}

// EnvCacheMetrics reported the pollers' packet-envelope free lists.
//
// Deprecated: the runtime pools nothing between Emit and dispatch — a
// queued message is its token — so every field is always zero. The type
// stays only until the repository benchmark stops reading it.
type EnvCacheMetrics struct {
	Hits, Refills, Misses, Recycles, Drops uint64
}

// Metrics is a typed snapshot of one node's runtime telemetry: every
// pipeline-stage counter and latency histogram the runtime maintains,
// aggregated over its per-poller shards. Counters are exact and count
// every message; latency histograms are sampled (LatencyStats). Prefer it
// over parsing the Prometheus endpoint when consuming metrics
// programmatically.
type Metrics struct {
	// Node is the node name the snapshot was taken from.
	Node string

	// Emit admission.
	Emits, EmitBytes, EmitBackpressure uint64
	// Scheduler and datapath dispatch.
	SchedEnqueues, Dispatches uint64
	// NIC and shared-memory traffic.
	TxMessages, RxMessages, LocalDeliveries uint64
	// Run-to-completion fast path (DESIGN.md §11): deliveries made
	// synchronously on the emitting goroutine, and emits on RTC-enabled
	// streams that fell back to the queued path.
	RTCDeliveries, RTCFallbacks uint64
	// Drop and degradation counters. DroppedMalformed counts received
	// frames discarded before dispatch: netstack decode error, wrong UDP
	// port, bad INSANE header.
	DroppedNoSink, DroppedBackpressure, DroppedMalformed, TechDowngrades uint64
	// Loss below the runtime, read from the owners' counters at snapshot
	// time. DroppedFabric counts frames this node's fabric ports lost
	// (link loss or an unknown address on transmit, a full or closed
	// queue on receive); DroppedRxAlloc counts frames that reached the
	// node and found no memory to land in — no free slot in the pools the
	// port receives into, or (RDMA) no posted receive buffer.
	DroppedFabric, DroppedRxAlloc uint64
	// Consume side. ConsumeParks counts the blocking Consumes that found
	// their sink still empty after their yields and went to sleep; a
	// Consume that found its message while yielding is not one.
	Consumes, ConsumeBytes, ConsumeParks uint64
	// Poller health (DESIGN.md, "Idle policy"), summed over the node's
	// polling threads. A poller parks after its hand-off yields and two
	// more passes in a row without work, and every park ends in exactly
	// one wake — a TX ring, the RX doorbell of its port, or the timer
	// toward a far 802.1Qbv gate — so PollerParks minus the three wakes
	// is the number of pollers asleep now. PollerIdlePasses counts the
	// passes that found no work.
	PollerParks, PollerWakesTX, PollerWakesRX, PollerWakesGateTimer, PollerIdlePasses uint64

	// Per-stage latency distributions: wall-clock, sampled (LatencyStats),
	// each the interval between two boundaries a sampled message crosses
	// on this node. EmitPickup is TX-lane push → pop by the poller (the
	// doorbell and the poller's wake); SchedDwell is scheduler enqueue →
	// dequeue; StageSend is Emit admission → pushed into a sink ring or
	// the endpoint's Send returned; StageProcessing is the packet
	// processing engine framing a message for a technology without its
	// own network stack; StageRecv is sink-ring push (pick-up from the
	// endpoint, for a message off the wire) → Consume return;
	// ConsumeLatency is Emit admission → Consume return of co-located
	// messages — the sum of their StageSend and StageRecv. No family
	// spans two nodes: their clocks are not comparable.
	EmitPickup      LatencyStats
	SchedDwell      LatencyStats
	ConsumeLatency  LatencyStats
	StageSend       LatencyStats
	StageRecv       LatencyStats
	StageProcessing LatencyStats

	// Occupancy distributions.
	TxRingOccupancy DistStats
	DispatchBatch   DistStats

	Mempool MempoolMetrics
	// Deprecated: always zero, see EnvCacheMetrics.
	EnvCache EnvCacheMetrics
	// SchedQueueDepth is the packets parked in the schedulers at
	// snapshot time.
	SchedQueueDepth uint64

	// Tenants holds each declared tenant's view of the node's telemetry
	// (DESIGN.md §12); empty when none is declared.
	Tenants []TenantMetrics
}

// TenantMetrics is one tenant's slice of a node's telemetry plus its
// quota gauges.
type TenantMetrics struct {
	// Tenant is the tenant the row describes.
	Tenant TenantID
	// Weight is the tenant's configured WDRR share.
	Weight int

	// Emit admission, as seen by this tenant's sessions.
	Emits, EmitBytes, EmitBackpressure uint64
	// QuotaRejects counts admissions refused by the tenant's own quotas
	// (slot budget or TX token cap).
	QuotaRejects uint64
	// Consume side.
	Consumes, ConsumeBytes uint64
	// DroppedBackpressure counts deliveries dropped on this tenant's
	// full sink rings.
	DroppedBackpressure uint64

	// ConsumeLatency is Emit admission → Consume return of the co-located
	// messages this tenant's sinks consumed, sampled like the node's
	// (every message of a time-sensitive stream; P999 is the
	// timing-isolation figure of merit).
	ConsumeLatency LatencyStats

	// MemUsed/MemLimit are the slot budget gauges (limit 0 = unlimited).
	MemUsed, MemLimit int64
	// TxInflight/TxLimit are the TX token gauges (limit 0 = unlimited).
	TxInflight, TxLimit int64
}

// latencyStats converts a histogram snapshot to the public summary.
func latencyStats(h *telemetry.HistSnapshot) LatencyStats {
	return LatencyStats{
		Count: h.Count,
		Mean:  time.Duration(h.Mean()),
		P50:   time.Duration(h.Quantile(0.50)),
		P90:   time.Duration(h.Quantile(0.90)),
		P99:   time.Duration(h.Quantile(0.99)),
		P999:  time.Duration(h.Quantile(0.999)),
		Max:   time.Duration(h.Max()),
	}
}

// distStats converts a dimensionless histogram snapshot.
func distStats(h *telemetry.HistSnapshot) DistStats {
	return DistStats{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Metrics merges the node's telemetry shards into a typed snapshot. It
// allocates and briefly locks scheduler queues: call it from monitoring
// or reporting code, not per message.
func (n *Node) Metrics() Metrics {
	s := n.rt.MetricsSnapshot()
	m := Metrics{
		Node:                n.name,
		Emits:               s.Counters[telemetry.CtrEmits],
		EmitBytes:           s.Counters[telemetry.CtrEmitBytes],
		EmitBackpressure:    s.Counters[telemetry.CtrEmitBackpressure],
		SchedEnqueues:       s.Counters[telemetry.CtrSchedEnqueues],
		Dispatches:          s.Counters[telemetry.CtrDispatches],
		TxMessages:          s.Counters[telemetry.CtrTxMessages],
		RxMessages:          s.Counters[telemetry.CtrRxMessages],
		LocalDeliveries:     s.Counters[telemetry.CtrLocalDeliveries],
		RTCDeliveries:       s.Counters[telemetry.CtrRTCDeliveries],
		RTCFallbacks:        s.Counters[telemetry.CtrRTCFallbacks],
		DroppedNoSink:       s.Counters[telemetry.CtrNoSinkDrops],
		DroppedBackpressure: s.Counters[telemetry.CtrRingFullDrops],
		DroppedMalformed:    s.Counters[telemetry.CtrRxMalformedDrops],
		TechDowngrades:      s.Counters[telemetry.CtrTechDowngrades],
		DroppedFabric:       s.FabricDrops,
		DroppedRxAlloc:      s.RxAllocDrops,
		Consumes:            s.Counters[telemetry.CtrConsumes],
		ConsumeBytes:        s.Counters[telemetry.CtrConsumeBytes],
		ConsumeParks:        s.Counters[telemetry.CtrConsumeParks],

		PollerParks:          s.Counters[telemetry.CtrPollerParks],
		PollerWakesTX:        s.Counters[telemetry.CtrPollerWakesTX],
		PollerWakesRX:        s.Counters[telemetry.CtrPollerWakesRX],
		PollerWakesGateTimer: s.Counters[telemetry.CtrPollerWakesGateTimer],
		PollerIdlePasses:     s.Counters[telemetry.CtrPollerIdlePasses],

		EmitPickup:      latencyStats(&s.Hists[telemetry.HistEmitPickup]),
		SchedDwell:      latencyStats(&s.Hists[telemetry.HistSchedDwell]),
		ConsumeLatency:  latencyStats(&s.Hists[telemetry.HistConsumeLatency]),
		StageSend:       latencyStats(&s.Hists[telemetry.HistStageSend]),
		StageRecv:       latencyStats(&s.Hists[telemetry.HistStageRecv]),
		StageProcessing: latencyStats(&s.Hists[telemetry.HistStageProcessing]),

		TxRingOccupancy: distStats(&s.Hists[telemetry.HistTxRingOccupancy]),
		DispatchBatch:   distStats(&s.Hists[telemetry.HistDispatchBatch]),

		Mempool: MempoolMetrics{
			Gets:     s.Mempool.Gets,
			Failures: s.Mempool.Failures,
			Releases: s.Mempool.Releases,
		},
		SchedQueueDepth: s.SchedQueueDepth,
	}
	for i, size := range s.Mempool.SlotSizes {
		m.Mempool.Classes = append(m.Mempool.Classes, MempoolClass{
			SlotSize:  size,
			Capacity:  s.Mempool.CapSlots[i],
			Free:      s.Mempool.FreeSlots[i],
			Committed: s.Mempool.CommittedSlots[i],
		})
	}
	for _, ts := range n.rt.TenantSnapshots() {
		m.Tenants = append(m.Tenants, TenantMetrics{
			Tenant:              TenantID(ts.Tenant),
			Weight:              ts.Weight,
			Emits:               ts.Snap.Counters[telemetry.CtrEmits],
			EmitBytes:           ts.Snap.Counters[telemetry.CtrEmitBytes],
			EmitBackpressure:    ts.Snap.Counters[telemetry.CtrEmitBackpressure],
			QuotaRejects:        ts.Snap.Counters[telemetry.CtrTenantQuotaRejects],
			Consumes:            ts.Snap.Counters[telemetry.CtrConsumes],
			ConsumeBytes:        ts.Snap.Counters[telemetry.CtrConsumeBytes],
			DroppedBackpressure: ts.Snap.Counters[telemetry.CtrRingFullDrops],
			ConsumeLatency:      latencyStats(&ts.Snap.Hists[telemetry.HistConsumeLatency]),
			MemUsed:             ts.MemUsed,
			MemLimit:            ts.MemLimit,
			TxInflight:          ts.Inflight,
			TxLimit:             ts.InflightLimit,
		})
	}
	return m
}
