package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/mempool"
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
