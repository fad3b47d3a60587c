//go:build perfbench

package main

// layerInputs is everything the traced pass measured.
type layerInputs struct {
	mixed bool
	// segments of untraced reference pings, traced pings and bursts; on
	// tsn-mixed a traced segment is both of the latter
	ref, lat, rate []segment
	// growth of the runtime's counters over the traced ping segments and
	// over the burst segments
	pingDelta, rateDelta counters
	mallocs              uint64
	ext                  extremes
	spans                []span
	base                 map[string]float64
}

// segmentStats returns the segments' median latencies, their samples
// pooled, the messages they emitted and their total length in seconds.
func segmentStats(segs []segment) (p50 []float64, all []uint32, msgs uint64, secs float64) {
	for _, seg := range segs {
		p50 = append(p50, summarize(seg.samples).P50)
		all = append(all, seg.samples...)
		msgs += seg.msgs
		secs += float64(seg.ns) / 1e9
	}
	return p50, all, msgs, secs
}

// layerMetrics fills in the per-layer metrics. Every workload reports the
// same names; a layer a workload does not run reads 0.
func (res *result) layerMetrics(in layerInputs) {
	agg := aggregate(in.spans)
	refP50, refAll, _, _ := segmentStats(in.ref)
	latP50, latAll, latMsgs, _ := segmentStats(in.lat)
	_, _, rateMsgs, rateSecs := segmentStats(in.rate)
	ref := summarize(refAll)
	res.Samples = len(latAll)
	all := in.pingDelta.plus(in.rateDelta).n
	msgs := float64(latMsgs + rateMsgs)
	var lateMax int64
	for _, seg := range in.lat {
		lateMax = max(lateMax, seg.lateMax)
	}
	if in.mixed { // one kind of segment, booked as both
		all, msgs = in.pingDelta.n, float64(latMsgs)
	}

	// insane: the public API calls, as spans around them.
	var sums [numSpanNames]latencySummary
	for n := range sums {
		sums[n] = summarize(agg[n].durations)
	}
	for _, n := range []spanName{spanGetBuffer, spanEmit, spanConsumeWait, spanRelease} {
		res.set(n.String()+"_p50_ns", "ns", sums[n].P50)
		res.set(n.String()+"_mean_ns", "ns", sums[n].Mean)
	}
	waits, slow := agg[spanConsumeWait].durations, 0 // sorted by summarize
	for i := len(waits) - 1; i >= 0 && waits[i] > slowWaitNs; i-- {
		slow++
	}
	res.set("insane.consume_slow_ratio", "ratio", ratio(float64(slow), float64(len(waits))))
	res.set("insane.consume_wait_self_mean_ns", "ns", ratio(agg[spanConsumeWait].selfSum, float64(len(agg[spanConsumeWait].durations))))
	for _, n := range []spanName{spanEchoGetBuffer, spanEchoEmit, spanEchoRelease} {
		res.set(n.String()+"_mean_ns", "ns", sums[n].Mean)
	}

	// trace: what tracing costs and whether the spans add up.
	msg, emit, wait := sums[spanMsg], sums[spanEmit], sums[spanConsumeWait]
	res.set("trace.overhead_ratio", "ratio", ratio(fastDecile(latP50, true), fastDecile(refP50, true)))
	res.set("trace.span_sum_ratio", "ratio", ratio(emit.Mean+wait.Mean, msg.Mean))
	res.set("trace.latency_mean_ns", "ns", msg.Mean)
	res.set("trace.latency_p50_ns", "ns", msg.P50)
	res.set("trace.harness_self_mean_ns", "ns", ratio(agg[spanOp].selfSum, float64(len(agg[spanOp].durations))))
	res.set("diag.latency_p999_us", "us", quantile(refAll, 0.999)/1e3)
	res.set("diag.latency_max_us", "us", ref.Max/1e3)
	res.Tail = ref.tail()
	res.set("allocs_per_msg", "1/msg", ratio(float64(in.mallocs), msgs))

	// core, mempool, datapath: counter growth per message the load
	// goroutine emitted.
	per := func(name string, k count) { res.set(name, "1/msg", ratio(all[k], msgs)) }
	per("core.emits", cEmits)
	per("core.emit_backpressure", cEmitBackpressure)
	per("core.sched_enqueues", cSchedEnqueues)
	per("core.dispatches", cDispatches)
	per("core.local_deliveries", cLocal)
	per("core.rtc_deliveries", cRTC)
	per("core.rtc_fallbacks", cRTCFallbacks)
	per("core.dropped_no_sink", cNoSink)
	per("core.dropped_ring_full", cRingFull)
	pd, rd := in.pingDelta.n, in.rateDelta.n
	if in.mixed {
		rd = pd
	}
	res.set("core.dispatch_batch_mean", "msgs", ratio(rd[cBatchSum], rd[cBatchN]))
	res.set("core.dispatch_batch_mean_ping", "msgs", ratio(pd[cBatchSum], pd[cBatchN]))
	res.set("core.tx_ring_occupancy_mean", "msgs", ratio(rd[cOccupancySum], rd[cOccupancyN]))
	res.set("core.tx_ring_occupancy_mean_ping", "msgs", ratio(pd[cOccupancySum], pd[cOccupancyN]))
	res.set("core.deliveries_per_s", "1/s", ratio(rd[cConsumes], rateSecs))
	per("mempool.gets", cPoolGets)
	per("mempool.failures", cPoolFailures)
	per("mempool.releases", cPoolReleases)
	res.set("mempool.free_slots_min", "slots", float64(in.ext.freeSlots))
	res.set("mempool.envcache_hit_ratio", "ratio", ratio(all[cEnvHits], all[cEnvHits]+all[cEnvRefills]+all[cEnvMisses]))
	per("datapath.tx_messages", cTx)
	per("datapath.rx_messages", cRx)
	per("datapath.tech_downgrades", cDowngrades)

	// sched and tenants: only tsn-mixed moves these.
	res.set("sched.queue_depth_max", "msgs", float64(in.ext.schedDepth))
	res.set("sched.dwell_vt_mean_ns", "ns", ratio(all[cDwellSum], all[cDwellN]))
	per("tenant.quota_rejects", cQuotaRejects)
	res.set("tenant.mem_used_max", "slots", float64(in.ext.memUsed))
	res.set("tenant.tx_inflight_max", "tokens", float64(in.ext.txInflight))
	res.set("tsn.gen_late_max_us", "us", float64(lateMax)/1e3)

	for _, name := range baseLayerNames {
		res.set(name, "ns", in.base[name])
	}
}

// baseLayerNames orders the base-package timings in the report.
var baseLayerNames = []string{
	"ringbuf.spsc_ns", "ringbuf.mpmc_ns", "ringbuf.mpmc_batch32_ns",
	"netstack.encode_64B_ns", "netstack.parse_64B_ns", "netstack.encode_8KB_ns", "netstack.parse_8KB_ns",
	"telemetry.record_ns",
}
