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
//     thread owns one shard, client-side handles (sources, sinks) are
//     striped round-robin over a small set of extra shards, and shards
//     are padded so two writers never share a line.
//  3. Cheap reads at any time — Snapshot() sums the shards; readers
//     never stall writers.
package telemetry

import "sync/atomic"

// CounterID enumerates the hot-path event counters. Keep NameOf and the
// DESIGN.md §8 reference table in sync when adding one.
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
	// sent because their session went away: reclaimed from its lanes at
	// detach (slot released, tenant uncharged, DESIGN.md §13), or drained
	// by a poller after the slot was already reclaimed.
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
	// CtrPollerWakesTX counts parks ended by a TX ring (Emit, session
	// flush or detach).
	CtrPollerWakesTX
	// CtrPollerWakesRX counts parks ended by the RX doorbell of a fabric
	// port.
	CtrPollerWakesRX
	// CtrPollerWakesGateTimer counts parks ended by the timer armed toward
	// a far 802.1Qbv gate opening.
	CtrPollerWakesGateTimer
	// CtrPollerIdlePasses counts polling passes that found no work (the
	// arm and re-poll passes before a park, and the spin toward a near
	// gate).
	CtrPollerIdlePasses

	// NumCounters sizes the per-shard counter array.
	NumCounters
)

// counterNames are the stable identifiers used by exporters.
var counterNames = [NumCounters]string{
	CtrEmits:              "emits",
	CtrEmitBytes:          "emit_bytes",
	CtrEmitBackpressure:   "emit_backpressure",
	CtrSchedEnqueues:      "sched_enqueues",
	CtrDispatches:         "dispatches",
	CtrTxMessages:         "tx_messages",
	CtrRxMessages:         "rx_messages",
	CtrLocalDeliveries:    "local_deliveries",
	CtrNoSinkDrops:        "drops_no_sink",
	CtrRingFullDrops:      "drops_ring_full",
	CtrTechDowngrades:     "tech_downgrades",
	CtrConsumes:           "consumes",
	CtrConsumeBytes:       "consume_bytes",
	CtrRTCDeliveries:      "rtc_deliveries",
	CtrRTCFallbacks:       "rtc_fallbacks",
	CtrTenantQuotaRejects: "tenant_quota_rejects",
	CtrTxReclaims:         "tx_reclaims",

	CtrRxMalformedDrops:     "rx_malformed_drops",
	CtrPollerParks:          "poller_parks",
	CtrPollerWakesTX:        "poller_wakes_tx",
	CtrPollerWakesRX:        "poller_wakes_rx",
	CtrPollerWakesGateTimer: "poller_wakes_gate_timer",
	CtrPollerIdlePasses:     "poller_idle_passes",
}

// NameOf returns the stable exporter name of a counter.
func NameOf(c CounterID) string { return counterNames[c] }

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

// histNames are the stable identifiers used by exporters.
var histNames = [NumHists]string{
	HistSchedDwell:      "sched_dwell",
	HistTxRingOccupancy: "txring_occupancy",
	HistDispatchBatch:   "dispatch_batch",
	HistConsumeLatency:  "consume_latency",
	HistStageSend:       "stage_send",
	HistStageRecv:       "stage_recv",
	HistStageProcessing: "stage_processing",
	HistEmitPickup:      "emit_pickup",
}

// HistNameOf returns the stable exporter name of a histogram.
func HistNameOf(h HistID) string { return histNames[h] }

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

// Telemetry owns the shard set of one runtime.
//
//insane:shared
type Telemetry struct {
	shards []*Shard      //insane:guardedby immutable after=New
	next   atomic.Uint32 //insane:guardedby atomic
}

// New creates a telemetry domain with n shards (at least 1): typically
// one per polling thread plus a few for client-side handles.
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

// Shard returns shard i (i < the n given to New); pollers bind their
// shard once at startup.
func (t *Telemetry) Shard(i int) *Shard { return t.shards[i] }

// AssignShard hands out shards round-robin; sources and sinks call it
// once at creation so concurrent client goroutines spread over the
// shard set instead of hammering one line.
func (t *Telemetry) AssignShard() *Shard {
	return t.shards[int(t.next.Add(1))%len(t.shards)]
}

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
	// FreeSlots and CapSlots are per size class, smallest first.
	FreeSlots, CapSlots []int
	// SlotSizes lists the per-class slot sizes, smallest first.
	SlotSizes []int
}

// Snapshot merges all shards. It allocates and is intended for the
// control path (exporters, Inspect, tests), never the data path.
func (t *Telemetry) Snapshot() *Snapshot {
	s := &Snapshot{}
	for _, sh := range t.shards {
		for c := range s.Counters {
			s.Counters[c] += sh.counters[c].Load()
		}
		for h := range s.Hists {
			s.Hists[h].merge(&sh.hists[h])
		}
	}
	return s
}

// Counter returns one merged counter value without building a full
// snapshot (cheap enough for polling in tests).
func (t *Telemetry) Counter(c CounterID) uint64 {
	var v uint64
	for _, sh := range t.shards {
		v += sh.counters[c].Load()
	}
	return v
}
