package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// TestIdlePassReadsOnlyQueueHeads: a poller pass that finds no work reads
// the queue heads and nothing else — no clock, no scheduler lock, no
// endpoint lock — while a token held behind a closed 802.1Qbv
// gate still makes every pass report the gate and its opening, and leaves
// once the gate opens. The runtime has a lane, a local sink and a remote
// subscriber, so every queue a pass looks at exists.
func TestIdlePassReadsOnlyQueueHeads(t *testing.T) {
	const us = time.Microsecond
	w := newStepped(t, datapath.Caps{DPDK: true}, datapath.Caps{DPDK: true}, func(c *Config) { c.GCL = testGCL })
	rt := w.a
	// Unsampled, so that the message itself reads no clock on its way.
	opts := qos.Options{Datapath: qos.DatapathFast, Timing: qos.TimingSensitive, Class: 7, NoTelemetry: true}
	const ch = 70
	connB, _ := w.b.Connect()
	stB, err := connB.OpenStream(opts)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := stB.CreateSink(ch)
	if err != nil {
		t.Fatal(err)
	}
	conn, _ := rt.Connect()
	stream, err := conn.OpenStream(opts)
	if err != nil {
		t.Fatal(err)
	}
	local, err := stream.CreateSink(ch)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.CreateSource(ch)
	if err != nil {
		t.Fatal(err)
	}
	w.Settle() // the SUBs
	st := rt.techs[stream.Tech()]
	// One poller per plugin, in Table 1 order.
	p := slices.Index(rt.Techs(), stream.Tech())

	// Nothing queued anywhere: 100 passes of every poller are 100 idle
	// passes each, not one clock reading, and not one lock — the test
	// holds every endpoint and scheduler lock while they run, so a pass
	// that took one would never return.
	idle := func(what string) {
		t.Helper()
		reads, passes := w.reads.Load(), rt.tel.Counter(telemetry.CtrPollerIdlePasses)
		for _, st := range rt.techs {
			st.mu.Lock()
			st.schedMu.Lock()
		}
		done := make(chan error, 1)
		go func() {
			for i := 0; i < 100; i++ {
				for q := range rt.pollers {
					if work, gated, _ := w.Step(rt, q); work != 0 || gated {
						done <- fmt.Errorf("pass %d found work %d, gated %v", i, work, gated)
						return
					}
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			for _, st := range rt.techs {
				st.schedMu.Unlock()
				st.mu.Unlock()
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: an idle pass is waiting for an endpoint or scheduler lock", what)
		}
		if got := w.reads.Load() - reads; got != 0 {
			t.Errorf("%s: 100 idle passes read the clock %d times", what, got)
		}
		want := 100 * uint64(len(rt.pollers))
		if got := rt.tel.Counter(telemetry.CtrPollerIdlePasses) - passes; got != want {
			t.Errorf("%s: poller_idle_passes moved by %d, want %d", what, got, want)
		}
	}
	idle("before the message")

	// Inside the window that closes class 7: the first pass files the
	// message with the shaper, the second finds nothing but the held token.
	// Both report the gate and when it opens.
	w.Set(timebase.VTime(150 * us))
	sendOn(t, src, []byte("gated"))
	for i, want := range []int{1, 0} {
		work, gated, next := w.Step(rt, p)
		if work != want || !gated || next != timebase.VTime(200*us) {
			t.Fatalf("gated pass %d: work %d, gated %v, next gate %v; want %d, true, 200µs", i, work, gated, next, want)
		}
	}
	if held := st.egress.Pending(); held != 1 {
		t.Fatalf("with one message held: the scheduler holds %d", held)
	}

	// The gate opens: the message leaves, to both sinks.
	w.Set(timebase.VTime(200 * us))
	if work, gated, _ := w.Step(rt, p); work != 1 || gated {
		t.Fatalf("pass at the gate opening: work %d, gated %v; want 1, false", work, gated)
	}
	w.Settle() // node B picks the remote copy up
	for _, k := range []*SinkHandle{local, remote} {
		var d Delivery
		if err := k.TryConsume(&d); err != nil {
			t.Fatal(err)
		}
		k.Release(&d)
	}
	if held := st.egress.Pending(); held != 0 {
		t.Errorf("after the release: the scheduler holds %d", held)
	}
	idle("after the message")
}

// TestPassReadsTheClockOnce: a pass that files k sampled tokens with the
// scheduler reads the clock once for all of them — the token's pickup time
// is the pass's scheduler time — and once more for the gate the held tokens
// wait for: two readings, whatever k is.
func TestPassReadsTheClockOnce(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) { c.GCL = testGCL })
	conn, _ := w.a.Connect()
	// Every message of a time-sensitive stream is sampled; class 0 is held
	// inside the protected window, so nothing is dispatched.
	stream, err := conn.OpenStream(qos.Options{Timing: qos.TimingSensitive, Class: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.CreateSink(25); err != nil {
		t.Fatal(err)
	}
	src, err := stream.CreateSource(25)
	if err != nil {
		t.Fatal(err)
	}
	p := slices.Index(w.a.Techs(), stream.Tech())
	w.Set(timebase.VTime(10 * time.Microsecond))
	const k = 4
	for i := 0; i < k; i++ {
		sendOn(t, src, []byte("sampled"))
	}
	reads := w.reads.Load()
	if work, gated, _ := w.Step(w.a, p); work != k || !gated {
		t.Fatalf("pass: work %d, gated %v; want %d, true", work, gated, k)
	}
	if got := w.reads.Load() - reads; got != 2 {
		t.Errorf("a pass filing %d sampled tokens read the clock %d times, want 2", k, got)
	}
}
