package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/timebase"
)

// rtcOpts is the QoS contract of a run-to-completion stream.
var rtcOpts = qos.Options{RunToCompletion: true}

// TestRTCDeliversSynchronously: a purely local single-sink emit on an
// RTC stream must be delivered by the emitting goroutine — consumable
// immediately, counted under RTCDeliveries, with zero fallbacks.
func TestRTCDeliversSynchronously(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, err := conn.OpenStream(rtcOpts)
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := st.CreateSink(31)
	src, _ := st.CreateSource(31)

	sendOn(t, src, []byte("sync"))
	// No waiting: the delivery was pushed before Emit returned.
	var d Delivery
	if err := sink.TryConsume(&d); err != nil {
		t.Fatalf("RTC delivery not immediately consumable: %v", err)
	}
	if !bytes.Equal(d.Payload, []byte("sync")) {
		t.Errorf("payload = %q, want %q", d.Payload, "sync")
	}
	if d.VTime.Duration() <= 0 {
		t.Error("RTC delivery carries no virtual-time charge")
	}
	sink.Release(&d)

	s := w.a.Stats()
	if s.RTCDeliveries != 1 {
		t.Errorf("RTCDeliveries = %d, want 1", s.RTCDeliveries)
	}
	if s.RTCFallbacks != 0 {
		t.Errorf("RTCFallbacks = %d, want 0", s.RTCFallbacks)
	}
	if s.LocalDeliveries != 1 {
		t.Errorf("LocalDeliveries = %d, want 1", s.LocalDeliveries)
	}
}

// TestRTCOutcomeRecorded: the synchronous path must feed EmitOutcome
// exactly like the queued one.
func TestRTCOutcomeRecorded(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(rtcOpts)
	sink, _ := st.CreateSink(32)
	src, _ := st.CreateSource(32)

	seq := sendOn(t, src, []byte("outcome"))
	o, ok := src.Outcome(seq)
	if !ok {
		t.Fatal("RTC emit outcome not recorded")
	}
	if o.LocalSinks != 1 || o.RemotePeers != 0 || o.Err != nil {
		t.Errorf("outcome = %+v, want 1 local sink", o)
	}
	var d Delivery
	if err := sink.TryConsume(&d); err != nil {
		t.Fatal(err)
	}
	sink.Release(&d)
}

// TestRTCFallbackRemoteSubscriber: a remote peer subscribed to the
// channel forces the queued path (the poller owns remote framing), and
// the message still reaches both the local and the remote sink.
func TestRTCFallbackRemoteSubscriber(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	stA, _ := connA.OpenStream(rtcOpts)
	stB, _ := connB.OpenStream(qos.Options{})
	localSink, _ := stA.CreateSink(33)
	remoteSink, _ := stB.CreateSink(33)
	waitSubscribed(t, w.a, 33, 1)
	src, _ := stA.CreateSource(33)

	sendOn(t, src, []byte("remote-too"))
	for _, k := range []*SinkHandle{localSink, remoteSink} {
		var d Delivery
		if err := consumeWithin(k, &d, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Payload, []byte("remote-too")) {
			t.Errorf("payload = %q", d.Payload)
		}
		k.Release(&d)
	}
	s := w.a.Stats()
	if s.RTCFallbacks != 1 {
		t.Errorf("RTCFallbacks = %d, want 1", s.RTCFallbacks)
	}
	if s.RTCDeliveries != 0 {
		t.Errorf("RTCDeliveries = %d, want 0", s.RTCDeliveries)
	}
}

// TestRTCFallbackWideFanout: more than RTCMaxFanout local sinks fall
// back to the queued path, which still fans the message out to all.
func TestRTCFallbackWideFanout(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(rtcOpts)
	sinks := make([]*SinkHandle, RTCMaxFanout+1)
	for i := range sinks {
		k, err := st.CreateSink(34)
		if err != nil {
			t.Fatal(err)
		}
		sinks[i] = k
	}
	src, _ := st.CreateSource(34)

	sendOn(t, src, []byte("wide"))
	for i, k := range sinks {
		var d Delivery
		if err := consumeWithin(k, &d, 2*time.Second); err != nil {
			t.Fatalf("sink %d: %v", i, err)
		}
		k.Release(&d)
	}
	s := w.a.Stats()
	if s.RTCFallbacks != 1 {
		t.Errorf("RTCFallbacks = %d, want 1", s.RTCFallbacks)
	}
	if s.RTCDeliveries != 0 {
		t.Errorf("RTCDeliveries = %d, want 0", s.RTCDeliveries)
	}
}

// TestRTCFallbackClosedGate: a time-sensitive RTC stream whose class
// gate is closed must not deliver synchronously — the packet belongs in
// the time-aware shaper until the gate opens.
func TestRTCFallbackClosedGate(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) { c.GCL = testGCL })
	conn, _ := w.a.Connect()
	st, err := conn.OpenStream(qos.Options{
		Timing: qos.TimingSensitive, Class: 0, RunToCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := st.CreateSink(35)
	src, _ := st.CreateSource(35)

	// Pin the clock inside the class-7-only window: class 0 is gated.
	w.Set(timebase.VTime(10 * time.Microsecond))
	sendOn(t, src, []byte("gated"))
	if s := w.a.Stats(); s.RTCFallbacks != 1 || s.RTCDeliveries != 0 {
		t.Errorf("closed gate: RTCFallbacks=%d RTCDeliveries=%d, want 1/0",
			s.RTCFallbacks, s.RTCDeliveries)
	}
	// The shaper holds the packet while the gate stays closed: the first
	// pass files it, the second finds it held; both point at the opening.
	for i, want := range []int{1, 0} {
		work, gated, next := w.Step(w.a, 0)
		if work != want || !gated || next != timebase.VTime(100*time.Microsecond) {
			t.Fatalf("gated pass %d: work %d, gated %v, next gate %v; want %d, true, 100µs", i, work, gated, next, want)
		}
	}
	var d Delivery
	if err := sink.TryConsume(&d); err == nil {
		t.Fatal("packet leaked through a closed gate")
	}
	w.Set(timebase.VTime(150 * time.Microsecond))
	if work, gated, _ := w.Step(w.a, 0); work != 1 || gated {
		t.Fatalf("pass in the open window: work %d, gated %v; want 1, false", work, gated)
	}
	if err := sink.TryConsume(&d); err != nil {
		t.Fatal(err)
	}
	sink.Release(&d)

	// With the clock in the open window the fast path engages.
	sendOn(t, src, []byte("open"))
	if s := w.a.Stats(); s.RTCDeliveries != 1 {
		t.Errorf("open gate: RTCDeliveries = %d, want 1", s.RTCDeliveries)
	}
	if err := sink.TryConsume(&d); err != nil {
		t.Fatal(err)
	}
	sink.Release(&d)
}

// TestRTCFallbackFullSinkRing: a sink ring at capacity fails the
// admission check, so the emit takes the queued path where backpressure
// accounting lives.
func TestRTCFallbackFullSinkRing(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(rtcOpts)
	sink, _ := st.CreateSink(36)
	src, _ := st.CreateSource(36)

	// Fill the sink ring to the brim through the fast path itself.
	for i := 0; i < rxRingDepth; i++ {
		sendOn(t, src, []byte("fill"))
	}
	s := w.a.Stats()
	if s.RTCDeliveries != rxRingDepth || s.RTCFallbacks != 0 {
		t.Fatalf("fill phase: RTCDeliveries=%d RTCFallbacks=%d, want %d/0",
			s.RTCDeliveries, s.RTCFallbacks, rxRingDepth)
	}
	// The ring is full: the next emit must fall back.
	sendOn(t, src, []byte("overflow"))
	if s := w.a.Stats(); s.RTCFallbacks != 1 {
		t.Errorf("overflow: RTCFallbacks = %d, want 1", s.RTCFallbacks)
	}
	// Drain and confirm nothing was lost out of order.
	for i := 0; i < rxRingDepth; i++ {
		var d Delivery
		if err := consumeWithin(sink, &d, 2*time.Second); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		sink.Release(&d)
	}
}

// TestRTCKeepsSourceOrderAcrossFallback: a message that fell back to the
// queued path is still on its way — in the lane, or held by the shaper —
// when the condition that sent it there clears. The source's next Emit must
// not run to completion past it: it queues behind, both arrive in the order
// they were emitted, and once the queued path has settled them the fast
// path engages again. On a stepped world no pass runs until the test
// settles it, so "still on its way" is a fact, not a race.
func TestRTCKeepsSourceOrderAcrossFallback(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts qos.Options
		// block makes the next Emit fall back, unblock clears the condition
		// while that Emit's message is still queued.
		block, unblock func(t *testing.T, w *stepped, src *SourceHandle, sink *SinkHandle)
		// ahead is how many messages sit in the sink ring before "first".
		ahead int
	}{
		{
			name: "closed gate",
			opts: qos.Options{Timing: qos.TimingSensitive, Class: 0, RunToCompletion: true},
			block: func(_ *testing.T, w *stepped, _ *SourceHandle, _ *SinkHandle) {
				w.Set(timebase.VTime(10 * time.Microsecond)) // class 7 only
			},
			unblock: func(_ *testing.T, w *stepped, _ *SourceHandle, _ *SinkHandle) {
				w.Set(timebase.VTime(150 * time.Microsecond)) // class 0 open
			},
		},
		{
			name: "full sink ring",
			opts: rtcOpts,
			block: func(t *testing.T, _ *stepped, src *SourceHandle, _ *SinkHandle) {
				for i := 0; i < rxRingDepth; i++ {
					sendOn(t, src, []byte("fill"))
				}
			},
			unblock: func(t *testing.T, _ *stepped, _ *SourceHandle, sink *SinkHandle) {
				for i := 0; i < 2; i++ { // room for "first" and "second"
					var d Delivery
					if err := sink.TryConsume(&d); err != nil {
						t.Fatal(err)
					}
					sink.Release(&d)
				}
			},
			ahead: rxRingDepth - 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) { c.GCL = testGCL })
			rt := w.a
			conn, _ := rt.Connect()
			stream, err := conn.OpenStream(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sink, _ := stream.CreateSink(38)
			src, _ := stream.CreateSource(38)
			w.Set(timebase.VTime(150 * time.Microsecond))

			tc.block(t, w, src, sink)
			sendOn(t, src, []byte("first"))
			if s := rt.Stats(); s.RTCFallbacks != 1 {
				t.Fatalf("first: RTCFallbacks = %d, want 1", s.RTCFallbacks)
			}
			tc.unblock(t, w, src, sink)
			sendOn(t, src, []byte("second"))
			w.Settle()

			for i := 0; i < tc.ahead; i++ {
				var d Delivery
				if err := sink.TryConsume(&d); err != nil {
					t.Fatal(err)
				}
				sink.Release(&d)
			}
			for _, want := range []string{"first", "second"} {
				var d Delivery
				if err := sink.TryConsume(&d); err != nil {
					t.Fatalf("%q: %v", want, err)
				}
				if string(d.Payload) != want {
					t.Errorf("consumed %q, want %q: per-source order broken", d.Payload, want)
				}
				sink.Release(&d)
			}

			// Both settled: nothing of this source is queued any more.
			if n := src.queued.Load(); n != 0 {
				t.Errorf("queued = %d after both were dispatched, want 0", n)
			}
			before := rt.Stats().RTCDeliveries
			sendOn(t, src, []byte("third"))
			if got := rt.Stats().RTCDeliveries - before; got != 1 {
				t.Errorf("third: RTCDeliveries moved by %d, want 1 (the fast path never re-engaged)", got)
			}
		})
	}
}

// TestSteadyStateZeroAllocRTC gates the run-to-completion path at zero
// allocations, like TestSteadyStateZeroAllocCore does the queued one.
func TestSteadyStateZeroAllocRTC(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate measures the plain build")
	}
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, err := w.a.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, err := conn.OpenStream(rtcOpts)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := st.CreateSink(37)
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(37)
	if err != nil {
		t.Fatal(err)
	}

	op := func() {
		var b Buffer
		if err := src.GetBuffer(&b, 64); err != nil {
			t.Fatal(err)
		}
		copy(b.Payload, "steady-state")
		if _, err := src.Emit(&b, 64); err != nil {
			t.Fatal(err)
		}
		var d Delivery
		if err := sink.TryConsume(&d); err != nil {
			t.Fatal(err)
		}
		sink.Release(&d)
	}

	for i := 0; i < 500; i++ {
		op()
	}
	samples, _ := latencySamples(w.a)
	var avg float64
	for attempt := 0; attempt < 2; attempt++ {
		avg = testing.AllocsPerRun(gateRuns, op)
		if avg == 0 {
			break
		}
	}
	if avg != 0 {
		t.Fatalf("RTC steady-state path allocates: %.2f allocs/op, want 0", avg)
	}
	sampledInsideGate(t, w.a, samples)
	// Every measured emit must actually have taken the fast path.
	if s := w.a.Stats(); s.RTCFallbacks != 0 {
		t.Errorf("RTCFallbacks = %d during the gate, want 0", s.RTCFallbacks)
	}
}
