// Package telemetry is the runtime's always-on observability substrate
// (DESIGN.md §8): per-poller, cache-line-padded counter/histogram shards
// written with atomic adds on the hot path — locked read-modify-writes,
// one per counter event and two per histogram sample, which is the cost
// §8 counts per message — merged into immutable snapshots off it. The
// design goals, in order:
//
//  1. Zero allocations and no locks on the publish path — every metric
//     lives in a preallocated array inside a shard, so recording is an
//     index computation plus the atomic adds (the allocation-gate tests
//     TestSteadyStateZeroAlloc{,Core} cover the instrumented path).
//  2. No cross-core cache-line bouncing in steady state — each polling
//     thread owns one shard no client handle ever writes, client-side
//     handles (sources, sinks) write the shards of their tenant, and
//     shards are padded so two writers never share a line.
//  3. Cheap reads at any time — Snapshot() sums the shards, SnapshotOf a
//     tenant's; readers never stall writers.
//  4. Every event is counted once, on one shard: a tenant's numbers are
//     a view of the node's, not a second set kept in step.
package telemetry

import (
	"fmt"
	"sync/atomic"
)

// CounterID enumerates the hot-path event counters. A new one is declared
// here and in counterTable.
type CounterID int

// Hot-path counters.
const (
	// CtrEmits counts messages admitted by Emit into a TX ring.
	CtrEmits CounterID = iota
	// CtrEmitBytes accumulates admitted payload bytes.
	CtrEmitBytes
	// CtrEmitBackpressure counts Emits rejected with a full TX ring.
	CtrEmitBackpressure
	// CtrSchedEnqueues counts packets filed with a scheduler.
	CtrSchedEnqueues
	// CtrDispatches counts packets dispatched out of the schedulers.
	CtrDispatches
	// CtrTxMessages counts per-peer remote sends.
	CtrTxMessages
	// CtrRxMessages counts data messages received from the network.
	CtrRxMessages
	// CtrLocalDeliveries counts shared-memory deliveries to local sinks.
	CtrLocalDeliveries
	// CtrNoSinkDrops counts received messages with no subscribed sink.
	CtrNoSinkDrops
	// CtrRingFullDrops counts deliveries dropped on full sink rings.
	CtrRingFullDrops
	// CtrTechDowngrades counts remote sends below the stream's mapped
	// technology (QoS fallback to a plane the peer actually has).
	CtrTechDowngrades
	// CtrConsumes counts deliveries handed to the application.
	CtrConsumes
	// CtrConsumeBytes accumulates consumed payload bytes.
	CtrConsumeBytes
	// CtrRTCDeliveries counts local deliveries made synchronously on the
	// emitting goroutine by the run-to-completion fast path (a subset of
	// CtrLocalDeliveries).
	CtrRTCDeliveries
	// CtrRTCFallbacks counts Emits on RTC-enabled streams that had to take
	// the queued path (remote subscriber, fanout over budget, closed TSN
	// gate, or a full sink ring).
	CtrRTCFallbacks
	// CtrTenantQuotaRejects counts admissions refused by a tenant quota
	// (mempool slot budget or in-flight TX token cap, DESIGN.md §12).
	CtrTenantQuotaRejects
	// CtrTxReclaims counts TX tokens that were charged and queued but never
	// sent: reclaimed from a closed session's lanes because the runtime
	// stopped before its pollers drained them (slot released, tenant
	// uncharged, DESIGN.md §13), or drained by a poller after the slot was
	// already reclaimed.
	CtrTxReclaims
	// CtrRxMalformedDrops counts received frames discarded before dispatch
	// because they could not be parsed or were not addressed to the
	// endpoint: netstack decode error, wrong UDP port, bad INSANE header.
	CtrRxMalformedDrops
	// CtrPollerParks counts the times a polling thread went to sleep: it
	// found no work, armed its doorbell, found no work again and blocked
	// (DESIGN.md, "Idle policy"). Every park ends in exactly one of the
	// three wakes below, so parks minus wakes is the number of pollers
	// asleep right now.
	CtrPollerParks
	// CtrPollerWakesTX counts parks ended by a TX ring (Emit, or a closed
	// session leaving tokens in its lanes).
	CtrPollerWakesTX
	// CtrPollerWakesRX counts parks ended by the RX doorbell of a fabric
	// port.
	CtrPollerWakesRX
	// CtrPollerWakesGateTimer counts parks ended by the timer armed toward
	// a far 802.1Qbv gate opening.
	CtrPollerWakesGateTimer
	// CtrPollerIdlePasses counts polling passes that found no work (the
	// hand-off yields, the arm and re-poll passes before a park, and the
	// spin toward a near gate).
	CtrPollerIdlePasses
	// CtrConsumeParks counts the times a blocking Consume found its sink
	// empty after its yields and blocked (DESIGN.md, "Idle policy"); a
	// wake already waiting for it is not a park.
	CtrConsumeParks

	// NumCounters sizes the per-shard counter array.
	NumCounters
)

// counterTable declares each counter once: the stable identifier exporters
// use and the # HELP text. It is the metric reference DESIGN.md §8 points to.
var counterTable = [NumCounters]struct{ name, help string }{
	CtrEmits:              {"emits", "Messages admitted by Emit into a session TX ring."},
	CtrEmitBytes:          {"emit_bytes", "Payload bytes admitted by Emit."},
	CtrEmitBackpressure:   {"emit_backpressure", "Emit attempts rejected because the TX ring was full."},
	CtrSchedEnqueues:      {"sched_enqueues", "Packets filed with a per-technology scheduler."},
	CtrDispatches:         {"dispatches", "Packets dispatched out of the schedulers."},
	CtrTxMessages:         {"tx_messages", "Data messages sent to remote peers (per-peer sends)."},
	CtrRxMessages:         {"rx_messages", "Data messages received from the network."},
	CtrLocalDeliveries:    {"local_deliveries", "Shared-memory deliveries to co-located sinks."},
	CtrNoSinkDrops:        {"drops_no_sink", "Received messages dropped for lack of a subscribed sink."},
	CtrRingFullDrops:      {"drops_ring_full", "Deliveries dropped on full sink rings (backpressure)."},
	CtrTechDowngrades:     {"tech_downgrades", "Remote sends forced below the stream's mapped technology."},
	CtrConsumes:           {"consumes", "Deliveries handed to the application by Consume."},
	CtrConsumeBytes:       {"consume_bytes", "Payload bytes handed to the application by Consume."},
	CtrRTCDeliveries:      {"rtc_deliveries", "Local deliveries made synchronously by the run-to-completion fast path."},
	CtrRTCFallbacks:       {"rtc_fallbacks", "Emits on RTC-enabled streams that fell back to the queued path."},
	CtrTenantQuotaRejects: {"tenant_quota_rejects", "Admissions refused by a tenant quota (slot budget or TX token cap)."},
	CtrTxReclaims:         {"tx_reclaims", "TX tokens reclaimed undrained from a closed session's lanes by a stopped runtime."},

	CtrRxMalformedDrops:     {"rx_malformed_drops", "Received frames dropped as malformed (netstack decode error, wrong UDP port, bad INSANE header)."},
	CtrPollerParks:          {"poller_parks", "Times a polling thread found no work twice in a row and went to sleep."},
	CtrPollerWakesTX:        {"poller_wakes_tx", "Polling-thread sleeps ended by a TX ring (Emit, or a closed session leaving tokens in its lanes)."},
	CtrPollerWakesRX:        {"poller_wakes_rx", "Polling-thread sleeps ended by the RX doorbell of a fabric port."},
	CtrPollerWakesGateTimer: {"poller_wakes_gate_timer", "Polling-thread sleeps ended by the timer toward a far 802.1Qbv gate."},
	CtrPollerIdlePasses:     {"poller_idle_passes", "Polling passes that found no work."},
	CtrConsumeParks:         {"consume_parks", "Times a blocking Consume found its sink empty after its yields and blocked."},
}

// NameOf returns the stable exporter name of a counter.
func NameOf(c CounterID) string { return counterTable[c].name }

// HistID enumerates the per-stage histograms. Latency histograms record
// nanoseconds; size histograms record dimensionless quantities.
//
// Every latency family is the difference of two readings of one runtime's
// clock, taken at the two boundaries it names, and is fed only by sampled
// messages: one in SamplePeriod per source, every message of a
// time-sensitive stream, none of a stream that opted out. Its sample
// count is therefore not a message count — rates come from the counters.
type HistID int

// SamplePeriod is how many messages of one source share one latency
// sample: the source's first message, then every SamplePeriod-th. A power
// of two, so the admission test is a mask.
const SamplePeriod = 64

// Pipeline-stage histograms (the §6 per-stage breakdown, live).
const (
	// HistSchedDwell is scheduler enqueue → dequeue, ns.
	HistSchedDwell HistID = iota
	// HistTxRingOccupancy samples a session TX ring's depth at each
	// drain pass (dimensionless).
	HistTxRingOccupancy
	// HistDispatchBatch records the packet count of each non-empty
	// dispatch batch (dimensionless).
	HistDispatchBatch
	// HistConsumeLatency is Emit admission → Consume return of co-located
	// messages, ns (a message off the wire was admitted on another
	// runtime's clock and is not recorded).
	HistConsumeLatency
	// HistStageSend is Emit admission → handed to a sink ring or, for a
	// remote subscriber, return of the endpoint's Send, ns.
	HistStageSend
	// HistStageRecv is sink-ring push — for a message off the wire, its
	// pick-up from the endpoint — → Consume return, ns.
	HistStageRecv
	// HistStageProcessing is the packet processing engine framing a
	// message for a technology without a network stack of its own, ns.
	HistStageProcessing
	// HistEmitPickup is TX-lane push → pop by the poller, ns: the
	// doorbell and the poller's wake.
	HistEmitPickup

	// NumHists sizes the per-shard histogram array.
	NumHists
)

// sampledHelp closes the help text of every latency family.
var sampledHelp = fmt.Sprintf(" Wall-clock, sampled 1-in-%d (every message on time-sensitive streams); _count is samples, not messages: rates come from the counters.", SamplePeriod)

// histTable declares each histogram once, like counterTable.
var histTable = [NumHists]struct{ name, help string }{
	HistSchedDwell:      {"sched_dwell", "Scheduler enqueue to dequeue." + sampledHelp},
	HistTxRingOccupancy: {"txring_occupancy", "Session TX ring depth sampled at each drain pass."},
	HistDispatchBatch:   {"dispatch_batch", "Packets per non-empty dispatch batch."},
	HistConsumeLatency:  {"consume_latency", "Emit admission to Consume return, co-located messages only." + sampledHelp},
	HistStageSend:       {"stage_send", "Emit admission to hand-over: pushed into a sink ring, or the endpoint's Send returned." + sampledHelp},
	HistStageRecv:       {"stage_recv", "Sink-ring push (pick-up from the endpoint for a message off the wire) to Consume return." + sampledHelp},
	HistStageProcessing: {"stage_processing", "Packet processing engine framing a message for a technology without its own network stack." + sampledHelp},
	HistEmitPickup:      {"emit_pickup", "TX-lane push to pop by the poller: the doorbell and the poller's wake." + sampledHelp},
}

// HistNameOf returns the stable exporter name of a histogram.
func HistNameOf(h HistID) string { return histTable[h].name }

// LatencyHist reports whether a histogram records nanoseconds (true) or
// a dimensionless size (false); exporters use it to pick units.
func LatencyHist(h HistID) bool {
	return h != HistTxRingOccupancy && h != HistDispatchBatch
}

// Shard is one writer-private slab of counters and histograms. The
// canonical owner is a single goroutine (a polling thread), but all
// writes are atomic, so striping several client goroutines over one
// shard stays correct — it only costs contention, never lost updates.
//
//insane:shared
type Shard struct {
	//insane:guardedby atomic
	counters [NumCounters]atomic.Uint64
	//insane:guardedby atomic
	hists [NumHists]Hist
	// pad keeps neighboring shards on distinct cache lines even though
	// the shards are individually heap-allocated (the allocator may
	// still co-locate two small tails).
	//insane:guardedby immutable after=New
	pad [64]byte //nolint:unused // padding, deliberately never read
}

// Inc adds 1 to a counter.
//
//insane:hotpath
func (s *Shard) Inc(c CounterID) { s.counters[c].Add(1) }

// Add adds n to a counter.
//
//insane:hotpath
func (s *Shard) Add(c CounterID, n uint64) { s.counters[c].Add(n) }

// Observe records one value into a histogram.
//
//insane:hotpath
func (s *Shard) Observe(h HistID, v int64) { s.hists[h].observe(v) }

// Telemetry owns the shard set of one runtime: the only telemetry domain
// of the node. Whoever builds it decides which shard is whose — the runtime
// gives one to each polling thread and partitions the rest by tenant — so
// a view of part of the node (a tenant) is SnapshotOf some of its shards.
//
//insane:shared
type Telemetry struct {
	shards []*Shard //insane:guardedby immutable after=New
}

// New creates a telemetry domain with n shards (at least 1).
func New(n int) *Telemetry {
	if n < 1 {
		n = 1
	}
	t := &Telemetry{shards: make([]*Shard, n)}
	for i := range t.shards {
		t.shards[i] = new(Shard)
	}
	return t
}

// Shard returns shard i (i < the n given to New); every writer binds its
// shard once, when it is created.
func (t *Telemetry) Shard(i int) *Shard { return t.shards[i] }

// Snapshot is a merged, immutable view of every shard, plus the
// capacity gauges the runtime fills in (pool and scheduler state is owned
// by other packages and sampled at snapshot time).
type Snapshot struct {
	Counters [NumCounters]uint64
	Hists    [NumHists]HistSnapshot

	// Mempool is the slot-pool activity sampled at snapshot time.
	Mempool MempoolSnapshot
	// SchedQueueDepth is the total packets parked in the schedulers.
	SchedQueueDepth uint64

	// The two loss points below the runtime, read from their owners'
	// counters at snapshot time (no hot-path write of the runtime's).
	// FabricDrops counts frames the node's fabric ports lost: on a
	// lossy link or to an unknown address when transmitting, on a full
	// or closed receive queue when receiving. RxAllocDrops counts frames
	// that reached the node and found no memory to land in: no free slot
	// in the pools the port receives into (counted by the port), or no
	// posted receive buffer (RDMA receiver-not-ready, counted by the
	// endpoint).
	FabricDrops, RxAllocDrops uint64
}

// MempoolSnapshot mirrors the memory manager's counters and per-class
// free-slot gauges.
type MempoolSnapshot struct {
	Gets, Failures, Releases uint64
	// FreeSlots, CapSlots and CommittedSlots (slots whose bytes are
	// allocated) are per size class, smallest first.
	FreeSlots, CapSlots, CommittedSlots []int
	// SlotSizes lists the per-class slot sizes, smallest first.
	SlotSizes []int
}

// SnapshotOf merges the given shards of the domain. It allocates and is
// intended for the control path (exporters, Inspect, tests), never the data
// path.
func (t *Telemetry) SnapshotOf(shards ...*Shard) *Snapshot {
	s := &Snapshot{}
	for _, sh := range shards {
		for c := range s.Counters {
			s.Counters[c] += sh.counters[c].Load()
		}
		for h := range s.Hists {
			s.Hists[h].merge(&sh.hists[h])
		}
	}
	return s
}

// Snapshot merges all shards: the node's figures.
func (t *Telemetry) Snapshot() *Snapshot { return t.SnapshotOf(t.shards...) }

// Counter returns one merged counter value without building a full
// snapshot (cheap enough for polling in tests).
func (t *Telemetry) Counter(c CounterID) uint64 {
	var v uint64
	for _, sh := range t.shards {
		v += sh.counters[c].Load()
	}
	return v
}
