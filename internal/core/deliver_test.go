package core

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// TestSinkTokenSize pins the Delivery a consume fills at 64 bytes: the
// public insane.Message embeds it, and a sink ring carries none of it —
// the payload view, clock and slot are rebuilt from the descriptor and
// the slot's header.
func TestSinkTokenSize(t *testing.T) {
	if size := unsafe.Sizeof(Delivery{}); size > 64 {
		t.Errorf("Delivery is %d bytes, want <= 64", size)
	}
}

// TestSinkDescSize pins the sink-ring element at 8 bytes: a slot id and a
// cost index. A sink's ring of rxRingDepth of them, each in a 16 B cell
// beside its sequence word, is 16 KB.
func TestSinkDescSize(t *testing.T) {
	if size := unsafe.Sizeof(sinkDesc{}); size > 8 {
		t.Errorf("sinkDesc is %d bytes, want <= 8", size)
	}
}

// fillRing fills a sink's ring with descriptors of no slot and returns
// what empties it again: call that before the sink closes, which would
// release whatever is queued.
func fillRing(k *SinkHandle) (empty func()) {
	for k.ring.TryPush(sinkDesc{slot: mempool.NoSlot}) {
	}
	return func() {
		for {
			if _, ok := k.ring.TryPop(); !ok {
				return
			}
		}
	}
}

// TestTxTokenSize pins the TX token at 40 bytes: it is the one record of
// a queued message, copied by value into the lane ring, the scheduler queue
// and the poller's batch, and a lane holds txRingDepth of them. The
// message's clock is in its slot's header, not here.
func TestTxTokenSize(t *testing.T) {
	if size := unsafe.Sizeof(txToken{}); size > 40 {
		t.Errorf("txToken is %d bytes, want <= 40", size)
	}
}

// TestDeliverAccounting drives the one delivery routine directly: for
// every fan-out and every pattern of full sink rings, each sink either
// gets the token (and one wake) or has its reference released and its
// drop counted once, on its own shard and so in its tenant's view, never
// on the caller's — and the slot goes back to the pool exactly when the
// last holder lets go.
func TestDeliverAccounting(t *testing.T) {
	cases := []struct {
		name      string
		sinks     int
		full      []int // indices of sinks whose ring is full
		sinkNoTel []int // indices of sinks that opted out of telemetry: delivered to and woken like any other
	}{
		{name: "1 sink", sinks: 1},
		{name: "1 sink, full", sinks: 1, full: []int{0}},
		{name: "2 sinks", sinks: 2},
		{name: "2 sinks, second full", sinks: 2, full: []int{1}},
		{name: "2 sinks, both full", sinks: 2, full: []int{0, 1}},
		{name: "4 sinks", sinks: 4},
		{name: "4 sinks, two full", sinks: 4, full: []int{0, 2}},
		{name: "4 sinks, one sink opted out", sinks: 4, sinkNoTel: []int{3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, func(cfg *Config) {
				cfg.Tenants = []TenantSpec{{Name: "acme"}}
			})
			rt := w.a
			conn, err := rt.ConnectTenant("acme")
			if err != nil {
				t.Fatal(err)
			}
			st, _ := conn.OpenStream(qos.Options{})
			sinks := make([]*SinkHandle, tc.sinks)
			for i := range sinks {
				if sinks[i], err = st.CreateSink(7); err != nil {
					t.Fatal(err)
				}
			}
			for _, i := range tc.sinkNoTel {
				sinks[i].noTel = true
			}
			isFull := make(map[int]bool)
			for _, i := range tc.full {
				isFull[i] = true
				defer fillRing(sinks[i])()
			}

			baseline := totalFree(rt)
			slot, _, err := rt.mm.Get(MsgHeadroom+8, conn.id)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.mm.AddRef(slot, tc.sinks); err != nil {
				t.Fatal(err)
			}
			h := rt.mm.Header(slot)
			h.Len, h.Stamps = 8, 0
			caller := telemetry.New(1)
			got := rt.deliver(caller.Shard(0), slot, h, sinks)

			want := tc.sinks - len(tc.full)
			if got != want {
				t.Errorf("deliver = %d, want %d", got, want)
			}
			drops := uint64(len(tc.full))
			if n := caller.Counter(telemetry.CtrRingFullDrops); n != 0 {
				t.Errorf("caller ring_full_drops = %d, want 0: the drop is the sink's", n)
			}
			if n := tenantView(rt, conn.ten).Counters[telemetry.CtrRingFullDrops]; n != drops {
				t.Errorf("sink tenant ring_full_drops = %d, want %d", n, drops)
			}
			if n := rt.tel.Counter(telemetry.CtrRingFullDrops); n != drops {
				t.Errorf("node ring_full_drops = %d, want %d", n, drops)
			}
			for i, k := range sinks {
				if woken := len(k.notify) == 1; woken == isFull[i] {
					t.Errorf("sink %d: woken = %v with ring full = %v", i, woken, isFull[i])
				}
			}

			// References: the caller's own plus one per sink that took the
			// token. The slot stays borrowed until the last is released.
			if err := rt.mm.Release(slot); err != nil {
				t.Fatalf("caller's own reference: %v", err)
			}
			for i, k := range sinks {
				if isFull[i] {
					continue
				}
				if free := totalFree(rt); free != baseline-1 {
					t.Fatalf("before sink %d released: %d free slots, want %d (reference over-released)", i, free, baseline-1)
				}
				desc, ok := k.ring.TryPop()
				if !ok || desc.slot != slot || desc.cost != rt.costIndex(i) {
					t.Fatalf("sink %d: descriptor %+v ok=%v, want slot %v cost %d", i, desc, ok, slot, rt.costIndex(i))
				}
				if err := rt.mm.Release(desc.slot); err != nil {
					t.Fatalf("sink %d reference: %v", i, err)
				}
			}
			if free := totalFree(rt); free != baseline {
				t.Errorf("after the last release: %d free slots, want %d (reference leaked)", free, baseline)
			}
		})
	}
}

// TestDeliverSameFromEveryOrigin: a message reaches a channel's sinks by
// one of three routes — a poller dispatching a queued Emit, the emitting
// goroutine on a run-to-completion stream, a poller receiving it from a
// peer over an unframed (kernel UDP) or a framed (DPDK) endpoint — and all
// of them end in the same routine, so the payload comes out the same, at
// MsgHeadroom in its slot with its own length, and so does the per-sink
// delivery charge.
func TestDeliverSameFromEveryOrigin(t *testing.T) {
	const channel = 9
	payload := []byte("same bytes, whatever the route")
	origins := []struct {
		name   string
		opts   qos.Options
		remote bool
		caps   datapath.Caps
		tech   model.Tech
	}{
		{name: "queued local"},
		{name: "run to completion", opts: rtcOpts},
		{name: "remote RX", remote: true, tech: model.TechKernelUDP},
		{name: "remote RX, DPDK", remote: true, caps: datapath.Caps{DPDK: true},
			opts: qos.Options{Datapath: qos.DatapathFast}, tech: model.TechDPDK},
	}
	for _, o := range origins {
		t.Run(o.name, func(t *testing.T) {
			w := buildWorld(t, o.caps, o.caps, nil)
			rxRT, txRT := w.a, w.a
			if o.remote {
				txRT = w.b
			}
			rxConn, _ := rxRT.Connect()
			rxStream, _ := rxConn.OpenStream(o.opts)
			var sinks [2]*SinkHandle
			for i := range sinks {
				var err error
				if sinks[i], err = rxStream.CreateSink(channel); err != nil {
					t.Fatal(err)
				}
			}
			txStream := rxStream
			if o.remote {
				waitSubscribed(t, txRT, channel, 1)
				txConn, _ := txRT.Connect()
				txStream, _ = txConn.OpenStream(o.opts)
				if got := txStream.Tech(); got != o.tech {
					t.Fatalf("sending stream on %v, want %v", got, o.tech)
				}
			}
			src, err := txStream.CreateSource(channel)
			if err != nil {
				t.Fatal(err)
			}
			sendOn(t, src, payload)

			var recv [2]time.Duration
			for i, k := range sinks {
				var d Delivery
				if err := consumeWithin(k, &d, 2*time.Second); err != nil {
					t.Fatalf("sink %d: %v", i, err)
				}
				if !bytes.Equal(d.Payload, payload) {
					t.Errorf("sink %d: payload %q (%d B), want %q (%d B)", i, d.Payload, len(d.Payload), payload, len(payload))
				}
				if _, buf := rxRT.mm.Held(d.Slot); len(d.Payload) == 0 || &d.Payload[0] != &buf[MsgHeadroom] {
					t.Errorf("sink %d: payload not at MsgHeadroom of slot %v", i, d.Slot)
				}
				recv[i] = d.Breakdown.Recv
				k.Release(&d)
			}
			// What precedes delivery differs by route (a remote message has
			// paid for the receive path already); the delivery charge on top
			// of it may not.
			if got, want := recv[1]-recv[0], rxRT.deliverCost[rxRT.costIndex(1)]-rxRT.deliverCost[0]; got != want {
				t.Errorf("second sink charged %v over the first, want %v", got, want)
			}
			if !o.remote && recv[0] != rxRT.deliverCost[0] {
				t.Errorf("first sink Recv = %v, want the delivery cost %v", recv[0], rxRT.deliverCost[0])
			}
		})
	}
}

// TestReusedSlotCarriesNothingStale: a borrow does not clear a slot's
// header, so every route that fills one for a delivery writes each field a
// consume reads back. On pools of one slot, a sampled 64 B message and
// then an unsampled 8 B one pass through the same slot: the second
// consume reads 8 B and closes no interval.
func TestReusedSlotCarriesNothingStale(t *testing.T) {
	const channel = 11
	for _, o := range []struct {
		name   string
		opts   qos.Options
		remote bool
	}{
		{name: "queued local"},
		{name: "run to completion", opts: rtcOpts},
		{name: "remote RX", remote: true},
	} {
		t.Run(o.name, func(t *testing.T) {
			w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) {
				c.Mem = mempool.Config{Classes: []mempool.ClassConfig{{SlotSize: 2048, Slots: 1}}}
			})
			rxRT, txRT := w.a, w.a
			if o.remote {
				txRT = w.b
			}
			rxConn, _ := rxRT.Connect()
			rxStream, _ := rxConn.OpenStream(o.opts)
			sink, err := rxStream.CreateSink(channel)
			if err != nil {
				t.Fatal(err)
			}
			w.Settle() // the SUB
			txStream := rxStream
			if o.remote {
				txConn, _ := txRT.Connect()
				txStream, _ = txConn.OpenStream(o.opts)
			}
			src, err := txStream.CreateSource(channel)
			if err != nil {
				t.Fatal(err)
			}

			slot := mempool.NoSlot
			for i, size := range []int{64, 8} { // seq 1 is sampled, seq 2 is not
				payload := bytes.Repeat([]byte{byte(i + 1)}, size)
				before, _ := latencySamples(rxRT)
				sendOn(t, src, payload)
				w.Settle()
				var d Delivery
				if err := sink.TryConsume(&d); err != nil {
					t.Fatalf("message %d: %v", i+1, err)
				}
				after, _ := latencySamples(rxRT)
				if i == 0 {
					slot = d.Slot
				} else if d.Slot != slot {
					t.Fatalf("message 2 in %v, message 1 in %v: the slot was not reused", d.Slot, slot)
				}
				if !bytes.Equal(d.Payload, payload) {
					t.Errorf("message %d: payload %v (%d B), want %d B of %d", i+1, d.Payload, len(d.Payload), size, i+1)
				}
				wantRecv, wantE2E := uint64(0), uint64(0)
				if i == 0 {
					wantRecv = 1
					if !o.remote {
						wantE2E = 1
					}
				}
				if got := after[telemetry.HistStageRecv] - before[telemetry.HistStageRecv]; got != wantRecv {
					t.Errorf("message %d closed stage_recv %d times, want %d", i+1, got, wantRecv)
				}
				if got := after[telemetry.HistConsumeLatency] - before[telemetry.HistConsumeLatency]; got != wantE2E {
					t.Errorf("message %d closed consume_latency %d times, want %d", i+1, got, wantE2E)
				}
				sink.Release(&d)
			}
			if n := rxRT.tel.Counter(telemetry.CtrRTCDeliveries); o.opts.RunToCompletion && n != 2 {
				t.Errorf("rtc_deliveries = %d, want 2: a message fell back to the queued path", n)
			}
		})
	}
}

// TestDrainedTokenOfDeadSlotIsCounted: a token whose slot was reclaimed
// between Emit and the poller's drain cannot be sent. The poller settles
// it — the tenant's in-flight charge comes back, the outcome carries the
// error — and counts it under tx_reclaims like a token dropConn finds
// still queued, so the message is not silently gone.
func TestDrainedTokenOfDeadSlotIsCounted(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, func(cfg *Config) {
		cfg.Tenants = []TenantSpec{{Name: "acme", TxTokens: 8}}
	})
	conn, err := w.a.ConnectTenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := conn.OpenStream(qos.Options{})
	src, err := st.CreateSource(35)
	if err != nil {
		t.Fatal(err)
	}
	var b Buffer
	if err := src.GetBuffer(&b, 16); err != nil {
		t.Fatal(err)
	}
	if err := w.a.Mem().Release(b.Slot); err != nil {
		t.Fatal(err)
	}
	seq, err := src.Emit(&b, 16)
	if err != nil {
		t.Fatal(err)
	}

	if o := waitOutcome(t, src, seq); o.Err == nil {
		t.Errorf("outcome = %+v, want the slot error", o)
	}
	if got := w.a.tel.Counter(telemetry.CtrTxReclaims); got != 1 {
		t.Errorf("tx_reclaims = %d, want 1", got)
	}
	if got := conn.ten.inflight.Load(); got != 0 {
		t.Errorf("tenant inflight = %d, want 0", got)
	}
}

// TestDispatchSkipsReborrowedSlot: a queued token whose slot was released
// behind the runtime's back and then borrowed by another source is found
// out at dispatch like a free one. It is counted under tx_reclaims and its
// outcome carries the slot error, the channel's sink gets nothing, and the
// new borrower's header and references are left as the borrower made them:
// the poller reads and charges a header, or hands a reference to a sink,
// only once it has proven the slot still the runtime's.
func TestDispatchSkipsReborrowedSlot(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	sink, err := st.CreateSink(36)
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(36)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := w.a.Connect()
	otherSt, _ := other.OpenStream(qos.Options{})
	thief, err := otherSt.CreateSource(37)
	if err != nil {
		t.Fatal(err)
	}

	var b Buffer
	if err := src.GetBuffer(&b, 16); err != nil {
		t.Fatal(err)
	}
	slot := b.Slot
	seq, err := src.Emit(&b, 16)
	if err != nil {
		t.Fatal(err)
	}
	mm := w.a.Mem()
	if err := mm.Release(slot); err != nil {
		t.Fatal(err)
	}
	// The free ring is FIFO: borrow until the released slot comes round.
	var held []Buffer
	defer func() {
		for i := range held {
			thief.Abort(&held[i])
		}
	}()
	for {
		var c Buffer
		if err := thief.GetBuffer(&c, 16); err != nil {
			t.Fatalf("slot %v never came back: %v", slot, err)
		}
		held = append(held, c)
		if c.Slot == slot {
			break
		}
	}
	mine := mempool.Header{
		Breakdown: timebase.Breakdown{Send: 1, Network: 2, Recv: 3, Processing: 4},
		AdmitT:    6,
	}
	*mm.Header(slot) = mine
	reclaims := w.a.tel.Counter(telemetry.CtrTxReclaims)

	w.Settle()

	if got := w.a.tel.Counter(telemetry.CtrTxReclaims) - reclaims; got != 1 {
		t.Errorf("tx_reclaims moved by %d, want 1", got)
	}
	if o, ok := src.Outcome(seq); !ok || o.Err == nil {
		t.Errorf("outcome = %+v (recorded %v), want the slot error", o, ok)
	}
	if got := *mm.Header(slot); got != mine {
		t.Errorf("new borrower's header = %+v, want %+v untouched", got, mine)
	}
	if n := sink.Available(); n != 0 {
		t.Errorf("sink holds %d deliveries of a dead slot, want 0", n)
	}
	if _, err := mm.Buf(slot, other.id); err != nil {
		t.Errorf("new borrower's slot: %v", err)
	}
	if got := conn.ten.inflight.Load(); got != 0 {
		t.Errorf("tenant inflight = %d, want 0", got)
	}
}
