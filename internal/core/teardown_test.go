package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// wantLive fails the test unless d's slot is borrowed and d reads payload.
func wantLive(t *testing.T, rt *Runtime, d *Delivery, payload string) {
	t.Helper()
	if _, err := rt.mm.Buf(d.Slot, mempool.NoOwner); err != nil {
		t.Errorf("%q: slot of a delivered message is not live: %v", payload, err)
	}
	if !bytes.Equal(d.Payload, []byte(payload)) {
		t.Errorf("payload = %q, want %q", d.Payload, payload)
	}
}

// wantNoLeakWarning fails the test if the runtime reclaimed slots of a
// detaching session: everything the sessions below borrowed was emitted.
func wantNoLeakWarning(t *testing.T, rt *Runtime) {
	t.Helper()
	for _, w := range rt.Warnings() {
		if strings.Contains(w, "leaked slots") {
			t.Errorf("warning %q: an emitted slot was reclaimed with its emitter", w)
		}
	}
}

// TestProducerCloseKeepsDeliveredSlots: Emit hands the slot to the runtime,
// owner included, so a message outlives the session that emitted it. One
// message held by the consumer and one still queued in its sink ring
// survive the producer's Close with their slots live and their bytes
// intact, on the queued path and run-to-completion alike; the pools are
// back at baseline only once the consumer has released both.
func TestProducerCloseKeepsDeliveredSlots(t *testing.T) {
	for _, mode := range []struct {
		name string
		rtc  bool
	}{{"queued", false}, {"rtc", true}} {
		t.Run(mode.name, func(t *testing.T) {
			w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
			baseline := totalFree(w.a)
			opts := qos.Options{RunToCompletion: mode.rtc}

			cons, _ := w.a.Connect()
			stC, err := cons.OpenStream(opts)
			if err != nil {
				t.Fatal(err)
			}
			sink, err := stC.CreateSink(61)
			if err != nil {
				t.Fatal(err)
			}
			prod, _ := w.a.Connect()
			stP, _ := prod.OpenStream(opts)
			src, err := stP.CreateSource(61)
			if err != nil {
				t.Fatal(err)
			}

			sendOn(t, src, []byte("held"))
			var held, queued Delivery
			if err := consumeWithin(sink, &held, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			sendOn(t, src, []byte("queued"))
			if !eventually(func() bool { return sink.Available() == 1 }) {
				t.Fatal("second message never reached the sink ring")
			}

			if err := prod.Close(); err != nil {
				t.Fatal(err)
			}
			wantNoLeakWarning(t, w.a)
			wantLive(t, w.a, &held, "held")
			if err := sink.TryConsume(&queued); err != nil {
				t.Fatalf("message queued in the sink ring lost with its producer: %v", err)
			}
			wantLive(t, w.a, &queued, "queued")
			if got := totalFree(w.a); got != baseline-2 {
				t.Errorf("free slots with two messages held = %d, want %d", got, baseline-2)
			}
			sink.Release(&held)
			sink.Release(&queued)
			if got := totalFree(w.a); got != baseline {
				t.Errorf("free slots after the consumer released = %d, want %d", got, baseline)
			}
		})
	}
}

// TestGatedMessageSurvivesSessionClose: a time-sensitive message parked in
// the shaper behind a closed 802.1Qbv gate when its session closes is, once
// the gate opens, either delivered from a live slot or counted under
// tx_reclaims — never both, never neither.
func TestGatedMessageSurvivesSessionClose(t *testing.T) {
	clock := &timebase.SimClock{}
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) {
		c.Clock = clock
		c.GCL = testGCL
	})
	baseline := totalFree(w.a)
	opts := qos.Options{Timing: qos.TimingSensitive, Class: 0} // gated class

	cons, _ := w.a.Connect()
	stC, err := cons.OpenStream(opts)
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := stC.CreateSink(62)
	prod, _ := w.a.Connect()
	stP, _ := prod.OpenStream(opts)
	src, _ := stP.CreateSource(62)

	// Inside the protected window class 0 is gated: the shaper parks it.
	clock.Set(timebase.VTime(10 * time.Microsecond))
	seq := sendOn(t, src, []byte("gated"))
	st := w.a.techs[stP.Tech()]
	if !eventually(func() bool { return st.egress.Pending() == 1 }) {
		t.Fatal("message never reached the shaper")
	}
	if err := prod.Close(); err != nil {
		t.Fatal(err)
	}
	wantNoLeakWarning(t, w.a)

	clock.Set(timebase.VTime(150 * time.Microsecond)) // the gate opens
	waitOutcome(t, src, seq)
	var d Delivery
	delivered := sink.TryConsume(&d) == nil
	reclaims := w.a.tel.Counter(telemetry.CtrTxReclaims)
	if delivered == (reclaims > 0) {
		t.Fatalf("delivered = %v with tx_reclaims = %d: want exactly one of the two", delivered, reclaims)
	}
	if delivered {
		wantLive(t, w.a, &d, "gated")
		sink.Release(&d)
	}
	if got := totalFree(w.a); got != baseline {
		t.Errorf("free slots at the end = %d, want %d", got, baseline)
	}
}

// TestCreateSinkFailureLeavesNoSink: a CreateSink whose announcement fails
// returns no handle, so it must leave no sink behind either — not in the
// table, not in the published view, where the next Emit would pin its slot
// in a ring nobody can consume or close.
func TestCreateSinkFailureLeavesNoSink(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) {
		c.Mem = mempool.Config{Classes: []mempool.ClassConfig{{SlotSize: 2048, Slots: 2}}}
	})
	conn, _ := w.a.Connect()
	st, err := conn.OpenStream(qos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(63)
	if err != nil {
		t.Fatal(err)
	}
	// Both slots borrowed: the SUB announcement finds none.
	var b1, b2 Buffer
	if err := src.GetBuffer(&b1, 8); err != nil {
		t.Fatal(err)
	}
	if err := src.GetBuffer(&b2, 8); err != nil {
		t.Fatal(err)
	}
	if k, err := st.CreateSink(63); err == nil {
		k.Close()
		t.Fatal("CreateSink succeeded with no slot for its announcement")
	}
	src.Abort(&b2)

	w.a.mu.RLock()
	registered := len(w.a.sinks[63])
	w.a.mu.RUnlock()
	if published := len(w.a.view.Load().routes[63].sinks); registered != 0 || published != 0 {
		t.Errorf("failed CreateSink left %d registered, %d published sinks", registered, published)
	}
	seq, err := src.Emit(&b1, 8)
	if err != nil {
		t.Fatal(err)
	}
	w.Settle()
	if o, ok := src.Outcome(seq); !ok || o.LocalSinks != 0 {
		t.Errorf("outcome = %+v (recorded: %v), want no local sink", o, ok)
	}
	if free := totalFree(w.a); free != 2 {
		t.Errorf("free slots = %d, want 2: the emitted slot is pinned", free)
	}
}

// newTeardownWorld is a stepped world whose tenant "acme" counts its TX
// tokens, on a clock past the default GCL's class-7-only window (which
// holds best effort back once a runtime has two tenants).
func newTeardownWorld(t *testing.T) *stepped {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) {
		c.Tenants = []TenantSpec{{Name: "acme", TxTokens: 8}}
	})
	w.Set(timebase.VTime(100 * time.Microsecond))
	return w
}

// closeWithQueued emits n queued messages on ch from a fresh producer
// session of node A, tenant acme, to a sink of another session, and closes
// the producer before any pass has run: when Close returns, its lane holds
// all n.
func closeWithQueued(w *stepped, ch uint32, n int) (*SinkHandle, *ClientConn) {
	w.t.Helper()
	cons, _ := w.a.Connect()
	stC, err := cons.OpenStream(qos.Options{})
	if err != nil {
		w.t.Fatal(err)
	}
	sink, err := stC.CreateSink(ch)
	if err != nil {
		w.t.Fatal(err)
	}
	prod, _ := w.a.ConnectTenant("acme")
	stP, _ := prod.OpenStream(qos.Options{})
	src, err := stP.CreateSource(ch)
	if err != nil {
		w.t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sendOn(w.t, src, []byte("queued"))
	}
	if err := prod.Close(); err != nil {
		w.t.Fatal(err)
	}
	return sink, prod
}

// wantNoLanes fails the test if rt's view still holds a lane or the
// draining flag.
func wantNoLanes(t *testing.T, rt *Runtime) {
	t.Helper()
	v := rt.view.Load()
	lanes := 0
	for _, l := range v.lanes {
		lanes += len(l)
	}
	if lanes != 0 || v.draining {
		t.Errorf("%s: the view holds %d lanes, draining = %v; want none", rt.name, lanes, v.draining)
	}
}

// TestCloseHandsLanesToPollers: a session closed with messages still in its
// lane returns at once and leaves the lane to the pollers, in the view and
// flagged draining; the next passes deliver every message, reclaim nothing
// and retire the lane, and the pools and the tenant's TX charge are back
// at baseline once the consumer has released what it got.
func TestCloseHandsLanesToPollers(t *testing.T) {
	const queued = 5
	w := newTeardownWorld(t)
	baseline := totalFree(w.a)
	sink, prod := closeWithQueued(w, 64, queued)
	if v := w.a.view.Load(); !v.draining || len(v.lanes[model.TechKernelUDP]) != 1 {
		t.Errorf("after Close: draining = %v with %d kernel lanes, want the closed session's lane left to the pollers",
			v.draining, len(v.lanes[model.TechKernelUDP]))
	}

	w.Settle()
	delivered := 0
	for {
		var d Delivery
		if sink.TryConsume(&d) != nil {
			break
		}
		wantLive(t, w.a, &d, "queued")
		sink.Release(&d)
		delivered++
	}
	if delivered != queued {
		t.Errorf("%d of %d queued messages delivered after the producer's Close", delivered, queued)
	}
	if got := w.a.tel.Counter(telemetry.CtrTxReclaims); got != 0 {
		t.Errorf("tx_reclaims = %d, want 0: the pollers drain a closed session's lane", got)
	}
	if got := totalFree(w.a); got != baseline {
		t.Errorf("free slots = %d, want %d", got, baseline)
	}
	if in := prod.ten.inflight.Load(); in != 0 {
		t.Errorf("tenant holds %d TX tokens, want 0", in)
	}
	wantNoLanes(t, w.a)
	wantNoLeakWarning(t, w.a)
}

// TestRuntimeCloseReclaimsDrainingLanes: a runtime closed while a closed
// session's lane still holds tokens reclaims them — slot released, TX
// charge returned, each counted under tx_reclaims on the token's tenant —
// and leaves no lane in the view.
func TestRuntimeCloseReclaimsDrainingLanes(t *testing.T) {
	const queued = 5
	w := newTeardownWorld(t)
	baseline := totalFree(w.a)
	sink, prod := closeWithQueued(w, 64, queued)
	if err := w.a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tenantView(w.a, prod.ten).Counters[telemetry.CtrTxReclaims]; got != queued {
		t.Errorf("tx_reclaims on the producer's tenant = %d, want %d", got, queued)
	}
	if n := sink.Available(); n != 0 {
		t.Errorf("%d messages delivered by a closed runtime", n)
	}
	if got := totalFree(w.a); got != baseline {
		t.Errorf("free slots = %d, want %d", got, baseline)
	}
	if in := prod.ten.inflight.Load(); in != 0 {
		t.Errorf("tenant holds %d TX tokens, want 0", in)
	}
	wantNoLanes(t, w.a)
}

// TestSinkClosedUnderStaleView: a deliverer that loaded the view before a
// sink's Close — a poller's dispatch or receive, another session's
// run-to-completion Emit — pushes into the ring after Close drained it.
// The deliverer sees the sink closed and drains it again, so the slot
// comes back.
func TestSinkClosedUnderStaleView(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, nil)
	baseline := totalFree(w.a)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	sink, err := st.CreateSink(65)
	if err != nil {
		t.Fatal(err)
	}
	w.Settle() // the SUB
	sinks := w.a.view.Load().routes[65].sinks
	sink.Close()

	slot, _, err := w.a.mm.Get(MsgHeadroom+8, mempool.NoOwner)
	if err != nil {
		t.Fatal(err)
	}
	h := w.a.mm.Header(slot)
	h.Len, h.Stamps = 8, 0
	w.a.deliver(w.a.pollers[0].shard, slot, h, sinks)
	w.Settle() // the UNSUB
	if got := totalFree(w.a); got != baseline {
		t.Errorf("free slots = %d, want %d: a delivery into the closed sink pins its slot", got, baseline)
	}
}

// TestSinkCloseUnderDeliveries: sinks close and reopen while run-to-
// completion Emits (on the emitting goroutines) and queued ones (on two
// pollers per plugin) deliver into them. Each channel keeps one sink open
// throughout, so the run-to-completion path stays taken. Once everything
// is closed, every slot is back in the pool. Run it under -race.
func TestSinkCloseUnderDeliveries(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) { c.PollersPerPlugin = 2 })
	free := fmt.Sprint(w.a.mm.FreeSlots())
	conn, _ := w.a.Connect()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churned atomic.Uint64
	for i, opts := range []qos.Options{rtcOpts, {}} {
		ch := uint32(67 + i)
		st, err := conn.OpenStream(opts)
		if err != nil {
			t.Fatal(err)
		}
		keep, err := st.CreateSink(ch)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := st.CreateSource(ch)
		wg.Add(3)
		go func() { // the emitter
			defer wg.Done()
			payload := []byte("churned")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := emitRetrying(src, payload); err != nil {
					t.Errorf("emit: %v", err)
					return
				}
			}
		}()
		go func() { // the sink kept open: consumes until told to stop
			defer wg.Done()
			var d Delivery
			for keep.Consume(&d, stop) == nil {
				keep.Release(&d)
			}
		}()
		go func() { // the sink that closes and reopens
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k, err := st.CreateSink(ch)
				if err != nil {
					t.Errorf("reopen: %v", err)
					return
				}
				var d Delivery
				if k.TryConsume(&d) == nil {
					k.Release(&d)
				}
				k.Close()
				churned.Add(1)
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if churned.Load() < 10 {
		t.Errorf("only %d sinks closed under deliveries", churned.Load())
	}
	if s := w.a.Stats(); s.RTCDeliveries == 0 || s.LocalDeliveries == s.RTCDeliveries {
		t.Errorf("%d local deliveries, %d of them run to completion: want both paths", s.LocalDeliveries, s.RTCDeliveries)
	}
	conn.Close()
	waitFree(t, w.a, free)
}
