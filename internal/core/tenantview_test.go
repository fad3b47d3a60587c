package core

import (
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// tenantView is what TenantSnapshots reports of a tenant — the merge of its
// shards — for any tenant of the registry, the default one included.
func tenantView(rt *Runtime, ten *tenant) *telemetry.Snapshot {
	return rt.tel.SnapshotOf(ten.shards...)
}

// clientCounters are the counters only a source or a sink writes: summed
// over the tenants, the default included, each is the node's figure.
var clientCounters = []telemetry.CounterID{
	telemetry.CtrEmits, telemetry.CtrEmitBytes, telemetry.CtrEmitBackpressure,
	telemetry.CtrTenantQuotaRejects, telemetry.CtrConsumes, telemetry.CtrConsumeBytes,
	telemetry.CtrRingFullDrops, telemetry.CtrRTCDeliveries, telemetry.CtrRTCFallbacks,
}

// wantTenantsSumToNode checks that the tenants' views partition the node's
// client-side counters: nothing a handle counts is outside every tenant or
// inside two.
func wantTenantsSumToNode(t *testing.T, rt *Runtime) {
	t.Helper()
	node := rt.tel.Snapshot()
	for _, c := range clientCounters {
		var sum uint64
		for _, ten := range rt.tenants {
			sum += tenantView(rt, ten).Counters[c]
		}
		if sum != node.Counters[c] {
			t.Errorf("%s: %s sums to %d over the tenants, the node counted %d",
				rt.name, telemetry.NameOf(c), sum, node.Counters[c])
		}
	}
}

// shardsOf lists every telemetry shard of the runtime with its owner: the
// pollers' first, then each tenant's.
func shardsOf(rt *Runtime) (shards []*telemetry.Shard, owner map[*telemetry.Shard]*tenant) {
	owner = make(map[*telemetry.Shard]*tenant)
	for _, p := range rt.pollers {
		shards = append(shards, p.shard)
	}
	for _, ten := range rt.tenants {
		for _, sh := range ten.shards {
			shards = append(shards, sh)
			owner[sh] = ten
		}
	}
	return shards, owner
}

// TestEventCountedOnce: one message from Emit to Consume, on the queued
// path and run to completion, from a session of the default tenant and
// from one of a declared tenant. Every shard of the node is read before
// and after: each counter word and each histogram moves on at most one
// shard; what the source and the sink count moves on their own shard, which
// is their tenant's; and the tenant's view moves by exactly what the node's
// figures do, the other tenant's not at all.
func TestEventCountedOnce(t *testing.T) {
	type ids = []telemetry.CounterID
	// What the poller and the source count for one message of each path.
	queuedPoller := ids{telemetry.CtrSchedEnqueues, telemetry.CtrDispatches, telemetry.CtrLocalDeliveries}
	queuedSource := ids{telemetry.CtrEmits, telemetry.CtrEmitBytes}
	rtcSource := ids{telemetry.CtrEmits, telemetry.CtrEmitBytes, telemetry.CtrLocalDeliveries, telemetry.CtrRTCDeliveries}
	for _, tc := range []struct {
		name, tenant   string
		opts           qos.Options
		poller, source ids
	}{
		{name: "queued, default tenant", poller: queuedPoller, source: queuedSource},
		{name: "queued, declared tenant", tenant: "acme", poller: queuedPoller, source: queuedSource},
		{name: "run to completion, default tenant", opts: rtcOpts, source: rtcSource},
		{name: "run to completion, declared tenant", tenant: "acme", opts: rtcOpts, source: rtcSource},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) {
				c.Tenants = []TenantSpec{{Name: "acme", TxTokens: 8, MemSlots: 8}}
			})
			// Past the default gate list's class-7-only window, which holds
			// best effort back once there are two tenants.
			w.Set(timebase.VTime(100 * time.Microsecond))
			rt := w.a
			conn, err := rt.ConnectTenant(tc.tenant)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := conn.OpenStream(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sink, _ := stream.CreateSink(8)
			src, _ := stream.CreateSource(8)
			shards, owner := shardsOf(rt)
			if owner[src.shard] != conn.ten || owner[sink.shard] != conn.ten {
				t.Fatalf("handles of tenant %q record into shards of %v and %v", tc.tenant, owner[src.shard], owner[sink.shard])
			}
			poller := rt.pollers[0].shard

			read := func() []*telemetry.Snapshot {
				out := make([]*telemetry.Snapshot, len(shards))
				for i, sh := range shards {
					out[i] = rt.tel.SnapshotOf(sh)
				}
				return out
			}
			before, nodeBefore := read(), rt.tel.Snapshot()
			viewBefore := [2]*telemetry.Snapshot{tenantView(rt, rt.tenants[0]), tenantView(rt, rt.tenants[1])}
			w.roundTrip(src, sink) // the source's first message: sampled
			after, nodeAfter := read(), rt.tel.Snapshot()

			// Where each word moved.
			moved := func(c telemetry.CounterID) (on []*telemetry.Shard) {
				for i, sh := range shards {
					if after[i].Counters[c] != before[i].Counters[c] {
						on = append(on, sh)
					}
				}
				return on
			}
			for c := telemetry.CounterID(0); c < telemetry.NumCounters; c++ {
				if on := moved(c); len(on) > 1 {
					t.Errorf("%s moved on %d shards: counted more than once", telemetry.NameOf(c), len(on))
				}
			}
			for h := telemetry.HistID(0); h < telemetry.NumHists; h++ {
				n := 0
				for i := range shards {
					if after[i].Hists[h].Count != before[i].Hists[h].Count {
						n++
					}
				}
				if n > 1 {
					t.Errorf("%s fed on %d shards: observed more than once", telemetry.HistNameOf(h), n)
				}
			}
			wantOn := func(who string, sh *telemetry.Shard, cs ...telemetry.CounterID) {
				for _, c := range cs {
					if on := moved(c); len(on) != 1 || on[0] != sh {
						t.Errorf("%s: moved on %d shards, want only the %s's", telemetry.NameOf(c), len(on), who)
					}
				}
			}
			wantOn("source", src.shard, tc.source...)
			wantOn("sink", sink.shard, telemetry.CtrConsumes, telemetry.CtrConsumeBytes)
			wantOn("poller", poller, tc.poller...)

			// The tenant's view is a view of the node's figures.
			viewAfter := [2]*telemetry.Snapshot{tenantView(rt, rt.tenants[0]), tenantView(rt, rt.tenants[1])}
			for _, c := range clientCounters {
				node := nodeAfter.Counters[c] - nodeBefore.Counters[c]
				for i, ten := range rt.tenants {
					got, want := viewAfter[i].Counters[c]-viewBefore[i].Counters[c], uint64(0)
					if ten == conn.ten {
						want = node
					}
					if got != want {
						t.Errorf("%s: tenant %q's view moved by %d, want %d (node: %d)", telemetry.NameOf(c), ten.name, got, want, node)
					}
				}
			}
			lat := func(s *telemetry.Snapshot) uint64 { return s.Hists[telemetry.HistConsumeLatency].Count }
			if node, view := lat(nodeAfter)-lat(nodeBefore), lat(viewAfter[conn.ten.index])-lat(viewBefore[conn.ten.index]); node != 1 || view != 1 {
				t.Errorf("consume_latency: node fed %d samples, tenant %q's view %d, want 1 and 1", node, tc.tenant, view)
			}
			wantTenantsSumToNode(t, rt)
		})
	}
}

// TestClientHandlesNeverShareAPollerShard: a poller's shard is private to
// it (DESIGN.md §8) however many handles are created — every source and
// sink records into a shard of its session's tenant, the default tenant's
// handles spread over all of its stripes, and no tenant's shard is
// another's or a poller's.
func TestClientHandlesNeverShareAPollerShard(t *testing.T) {
	w := buildWorld(t, fullCaps, fullCaps, func(c *Config) {
		c.PollersPerPlugin = 2
		c.Tenants = []TenantSpec{{Name: "acme"}, {Name: "globex"}}
	})
	rt := w.a
	shards, owner := shardsOf(rt)
	if len(owner)+len(rt.pollers) != len(shards) {
		t.Fatalf("%d pollers and %d tenant shards share some of %d shards", len(rt.pollers), len(owner), len(shards))
	}
	seen := make(map[*telemetry.Shard]bool)
	for _, sh := range shards {
		if seen[sh] {
			t.Fatal("one shard handed to two owners")
		}
		seen[sh] = true
	}

	used := make(map[*telemetry.Shard]int)
	for round := 0; round < 3*len(shards); round++ {
		conn, err := rt.ConnectTenant([]string{"", "acme", "globex"}[round%3])
		if err != nil {
			t.Fatal(err)
		}
		stream, err := conn.OpenStream(qos.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sink, err1 := stream.CreateSink(uint32(200 + round))
		src, err2 := stream.CreateSource(uint32(200 + round))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for _, sh := range []*telemetry.Shard{src.shard, sink.shard} {
			if owner[sh] != conn.ten {
				t.Fatalf("round %d: a handle of tenant %q records into a shard of %v (nil: a poller's)", round, conn.ten.name, owner[sh])
			}
			used[sh]++
		}
		conn.Close()
	}
	for _, sh := range rt.tenants[0].shards {
		if used[sh] == 0 {
			t.Error("a stripe of the default tenant was never handed out")
		}
	}
}
