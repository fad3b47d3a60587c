// Prometheus text exposition (version 0.0.4) for telemetry snapshots.
// The exporter runs on the control path only: it renders merged
// snapshots, never touches live shards, and coalesces the fine log-linear
// buckets to one `le` per octave so a scrape stays compact while the
// in-memory histograms keep their full resolution for quantiles.

package telemetry

import (
	"fmt"
	"io"
	"strconv"
)

// MetricPrefix namespaces every exported series.
const MetricPrefix = "insane_"

// CounterMetricName returns the full Prometheus series name of a counter.
func CounterMetricName(c CounterID) string {
	return MetricPrefix + counterTable[c].name + "_total"
}

// HistMetricName returns the full Prometheus series name of a histogram.
func HistMetricName(h HistID) string {
	if LatencyHist(h) {
		return MetricPrefix + histTable[h].name + "_seconds"
	}
	return MetricPrefix + histTable[h].name
}

// CounterHelp returns the # HELP text of a counter.
func CounterHelp(c CounterID) string { return counterTable[c].help }

// HistHelp returns the # HELP text of a histogram.
func HistHelp(h HistID) string { return histTable[h].help }

// NodeSnapshot pairs a node name with its merged snapshot for export.
type NodeSnapshot struct {
	Node string
	Snap *Snapshot
	// Tenants carries each declared tenant's view of the node's shards;
	// empty when the node declares none (nothing extra is exported).
	Tenants []TenantSnapshot
}

// TenantSnapshot is one tenant's merged telemetry plus its quota gauges,
// sampled together on the control path (DESIGN.md §12).
type TenantSnapshot struct {
	// Tenant is the declared tenant name (the `tenant` label value).
	Tenant string
	// Weight is the tenant's WDRR share.
	Weight int
	// Snap merges the tenant's shards of the node's domain.
	Snap *Snapshot
	// MemUsed/MemLimit are the mempool slot budget gauges (limit 0 =
	// unlimited).
	MemUsed, MemLimit int64
	// Inflight/InflightLimit are the TX token quota gauges (limit 0 =
	// unlimited).
	Inflight, InflightLimit int64
}

// WriteProm renders the snapshots in Prometheus text format: one
// HELP/TYPE block per metric, one series per node (label node="...").
func WriteProm(w io.Writer, nodes []NodeSnapshot) error {
	bw := &errWriter{w: w}

	for c := CounterID(0); c < NumCounters; c++ {
		name := CounterMetricName(c)
		bw.printf("# HELP %s %s\n# TYPE %s counter\n", name, counterTable[c].help, name)
		for _, n := range nodes {
			bw.printf("%s{node=%q} %d\n", name, n.Node, n.Snap.Counters[c])
		}
	}

	for h := HistID(0); h < NumHists; h++ {
		name := HistMetricName(h)
		bw.printf("# HELP %s %s\n# TYPE %s histogram\n", name, histTable[h].help, name)
		for _, n := range nodes {
			writeHist(bw, name, nodeLabel(n.Node), &n.Snap.Hists[h], LatencyHist(h))
		}
	}

	writeMempool(bw, nodes)

	// Values sampled from their owners at snapshot time.
	sampled := func(name, kind, help string, val func(*Snapshot) uint64) {
		name = MetricPrefix + name
		bw.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, n := range nodes {
			bw.printf("%s{node=%q} %d\n", name, n.Node, val(n.Snap))
		}
	}
	sampled("sched_queue_depth", "gauge", "Packets parked in the per-technology schedulers.",
		func(s *Snapshot) uint64 { return s.SchedQueueDepth })
	sampled("fabric_drops_total", "counter", "Frames lost by the node's fabric ports: link loss, unknown destination, full or closed receive queue.",
		func(s *Snapshot) uint64 { return s.FabricDrops })
	sampled("rx_alloc_drops_total", "counter", "Frames that reached the node and found no memory to land in: no free receive slot, or (RDMA) no posted receive buffer.",
		func(s *Snapshot) uint64 { return s.RxAllocDrops })

	writeTenants(bw, nodes)
	return bw.err
}

// tenantCounters is the per-tenant counter subset exported with a
// tenant label; the rest of the counters are runtime-wide by nature
// (scheduler, RX, peer TX) and stay node-level only.
var tenantCounters = []CounterID{
	CtrEmits, CtrEmitBytes, CtrEmitBackpressure, CtrTenantQuotaRejects,
	CtrConsumes, CtrConsumeBytes, CtrRingFullDrops,
}

// writeTenants renders the tenant-labeled series for nodes that declare
// tenants: the counter subset, the consume-latency histogram, and the
// quota gauges.
func writeTenants(bw *errWriter, nodes []NodeSnapshot) {
	any := false
	for _, n := range nodes {
		if len(n.Tenants) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}

	for _, c := range tenantCounters {
		name := MetricPrefix + "tenant_" + counterTable[c].name + "_total"
		bw.printf("# HELP %s Per-tenant: %s\n# TYPE %s counter\n", name, counterTable[c].help, name)
		for _, n := range nodes {
			for _, ts := range n.Tenants {
				bw.printf("%s{node=%q,tenant=%q} %d\n", name, n.Node, ts.Tenant, ts.Snap.Counters[c])
			}
		}
	}

	hname := MetricPrefix + "tenant_" + histTable[HistConsumeLatency].name + "_seconds"
	bw.printf("# HELP %s Per-tenant: %s\n# TYPE %s histogram\n", hname, histTable[HistConsumeLatency].help, hname)
	for _, n := range nodes {
		for _, ts := range n.Tenants {
			writeHist(bw, hname, tenantLabels(n.Node, ts.Tenant), &ts.Snap.Hists[HistConsumeLatency], true)
		}
	}

	type gauge struct {
		name, help string
		pick       func(TenantSnapshot) int64
	}
	gauges := []gauge{
		{"tenant_weight", "Configured WDRR weight of the tenant.", func(t TenantSnapshot) int64 { return int64(t.Weight) }},
		{"tenant_mem_slots_used", "Mempool slots currently charged to the tenant.", func(t TenantSnapshot) int64 { return t.MemUsed }},
		{"tenant_mem_slots_limit", "Tenant mempool slot budget (0 = unlimited).", func(t TenantSnapshot) int64 { return t.MemLimit }},
		{"tenant_tx_inflight", "TX tokens currently in flight for the tenant.", func(t TenantSnapshot) int64 { return t.Inflight }},
		{"tenant_tx_inflight_limit", "Tenant in-flight TX token cap (0 = unlimited).", func(t TenantSnapshot) int64 { return t.InflightLimit }},
	}
	for _, g := range gauges {
		name := MetricPrefix + g.name
		bw.printf("# HELP %s %s\n# TYPE %s gauge\n", name, g.help, name)
		for _, n := range nodes {
			for _, ts := range n.Tenants {
				bw.printf("%s{node=%q,tenant=%q} %d\n", name, n.Node, ts.Tenant, g.pick(ts))
			}
		}
	}
}

// writeHist renders one histogram series under a pre-rendered label set
// (e.g. `node="n1"` or `node="n1",tenant="cam"`). The fine buckets are
// coalesced per octave; cumulative counts and `le` bounds follow the
// exposition-format contract (le is an inclusive upper bound, the +Inf
// bucket equals _count).
func writeHist(bw *errWriter, name, labels string, s *HistSnapshot, seconds bool) {
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if (i+1)%histSub != 0 && i != NumBuckets-1 {
			continue // emit one le per octave boundary
		}
		le := float64(BucketUpper(i))
		if seconds {
			le /= 1e9
		}
		bw.printf("%s_bucket{%s,le=%q} %d\n",
			name, labels, strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	bw.printf("%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	sum := float64(s.Sum)
	if seconds {
		sum /= 1e9
	}
	bw.printf("%s_sum{%s} %s\n", name, labels, strconv.FormatFloat(sum, 'g', -1, 64))
	bw.printf("%s_count{%s} %d\n", name, labels, cum)
}

// nodeLabel renders the node label pair.
func nodeLabel(node string) string { return "node=" + strconv.Quote(node) }

// tenantLabels renders the node+tenant label pairs.
func tenantLabels(node, tenant string) string {
	return "node=" + strconv.Quote(node) + ",tenant=" + strconv.Quote(tenant)
}

// writeMempool renders the memory-manager series.
func writeMempool(bw *errWriter, nodes []NodeSnapshot) {
	type ctr struct{ name, help string }
	ctrs := []ctr{
		{"mempool_gets_total", "Successful slot borrows from the memory manager."},
		{"mempool_failures_total", "Slot requests failed (pools exhausted or oversized)."},
		{"mempool_releases_total", "Slots fully recycled to their free rings."},
	}
	pick := func(m MempoolSnapshot, i int) uint64 {
		switch i {
		case 0:
			return m.Gets
		case 1:
			return m.Failures
		default:
			return m.Releases
		}
	}
	for i, c := range ctrs {
		name := MetricPrefix + c.name
		bw.printf("# HELP %s %s\n# TYPE %s counter\n", name, c.help, name)
		for _, n := range nodes {
			bw.printf("%s{node=%q} %d\n", name, n.Node, pick(n.Snap.Mempool, i))
		}
	}
	free := MetricPrefix + "mempool_free_slots"
	bw.printf("# HELP %s Free slots per size class.\n# TYPE %s gauge\n", free, free)
	for _, n := range nodes {
		m := n.Snap.Mempool
		for i, f := range m.FreeSlots {
			bw.printf("%s{node=%q,class=\"%d\"} %d\n", free, n.Node, m.SlotSizes[i], f)
		}
	}
	capName := MetricPrefix + "mempool_capacity_slots"
	bw.printf("# HELP %s Configured slots per size class.\n# TYPE %s gauge\n", capName, capName)
	for _, n := range nodes {
		m := n.Snap.Mempool
		for i, c := range m.CapSlots {
			bw.printf("%s{node=%q,class=\"%d\"} %d\n", capName, n.Node, m.SlotSizes[i], c)
		}
	}
}

// errWriter folds write errors so the render body stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
