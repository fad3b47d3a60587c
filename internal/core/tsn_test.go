package core

import (
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/sched"
	"github.com/insane-mw/insane/internal/timebase"
)

// TestTSNGateWaitAccountedInVTime drives a time-sensitive stream with a
// SimClock pinned inside the closed-gate region and verifies the gate
// wait surfaces in the delivery's virtual latency once the gate opens.
func TestTSNGateWaitAccountedInVTime(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) { c.GCL = testGCL })

	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	opts := qos.Options{Timing: qos.TimingSensitive, Class: 0} // gated class
	stA, err := connA.OpenStream(opts)
	if err != nil {
		t.Fatal(err)
	}
	stB, _ := connB.OpenStream(opts)
	sink, _ := stB.CreateSink(21)
	w.Settle() // the SUB
	src, _ := stA.CreateSource(21)
	st := w.a.techs[stA.Tech()]

	// Pin the clock inside the protected window: class 0 is gated. The
	// first pass files the message with the shaper, the second finds it
	// held; both point at the opening, and nothing leaves.
	w.Set(timebase.VTime(10 * time.Microsecond))
	sendOn(t, src, []byte("gated"))
	for i, want := range []int{1, 0} {
		work, gated, next := w.Step(w.a, 0)
		if work != want || !gated || next != timebase.VTime(100*time.Microsecond) {
			t.Fatalf("gated pass %d: work %d, gated %v, next gate %v; want %d, true, 100µs", i, work, gated, next, want)
		}
	}
	if held := st.egress.Pending(); held != 1 {
		t.Fatalf("inside the window the scheduler holds %d, want 1", held)
	}
	if err := sink.TryConsume(new(Delivery)); err == nil {
		t.Fatal("packet leaked through a closed gate")
	}

	// Open the gate: move the clock into the open window. One pass sends.
	w.Set(timebase.VTime(150 * time.Microsecond))
	if work, gated, _ := w.Step(w.a, 0); work != 1 || gated {
		t.Fatalf("pass in the open window: work %d, gated %v; want 1, false", work, gated)
	}
	w.Settle() // node B picks it up
	var d Delivery
	if err := sink.TryConsume(&d); err != nil {
		t.Fatal(err)
	}
	defer sink.Release(&d)
	// The delivery must account ≥ the 140µs spent waiting for the gate.
	if vt := d.Breakdown.Total(); vt < 140*time.Microsecond {
		t.Errorf("delivery vtime = %v, want ≥140µs of gate wait", vt)
	}
}

// TestStreamWhoseClassNeverOpensIsRefused: OpenStream refuses a stream
// whose packets the egress would gate behind a class the gate control list
// never opens, where each message would keep its slot and its tenant's TX
// charge for good. Time-sensitive streams are always gated, best-effort ones
// once the node declares tenants; the class that counts is the one left
// after the tenant's MaxClass clamp.
func TestStreamWhoseClassNeverOpensIsRefused(t *testing.T) {
	class7Only := sched.GCL{{Duration: 100 * time.Microsecond, Gates: 1 << 7}}
	acme := []TenantSpec{{Name: "acme"}}
	cases := []struct {
		name    string
		tenants []TenantSpec
		tenant  string
		opts    qos.Options
		refused bool
	}{
		{"time-sensitive, class never opens", nil, "", qos.Options{Timing: qos.TimingSensitive, Class: 0}, true},
		{"time-sensitive, class opens", nil, "", qos.Options{Timing: qos.TimingSensitive, Class: 7}, false},
		{"best effort, one tenant", nil, "", qos.Options{Class: 0}, false},
		{"best effort between tenants, class never opens", acme, "acme", qos.Options{Class: 0}, true},
		{"best effort between tenants, class opens", acme, "acme", qos.Options{Class: 7}, false},
		{"class clamped to one that never opens", []TenantSpec{{Name: "capped", MaxClass: 5}}, "capped",
			qos.Options{Timing: qos.TimingSensitive, Class: 7}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(cfg *Config) {
				cfg.GCL = class7Only
				cfg.Tenants = c.tenants
			})
			conn, err := w.a.ConnectTenant(c.tenant)
			if err != nil {
				t.Fatal(err)
			}
			_, err = conn.OpenStream(c.opts)
			if refused := err != nil; refused != c.refused {
				t.Fatalf("OpenStream(%s) = %v, want refused %v", c.opts, err, c.refused)
			}
		})
	}
}

// TestBestEffortUnaffectedByGates: FIFO streams must flow while the TSN
// gate for other classes is closed.
func TestBestEffortUnaffectedByGates(t *testing.T) {
	clock := &timebase.SimClock{}
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) {
		c.Clock = clock
	})
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	stA, _ := connA.OpenStream(qos.Options{})
	stB, _ := connB.OpenStream(qos.Options{})
	sink, _ := stB.CreateSink(22)
	waitSubscribed(t, w.a, 22, 1)
	src, _ := stA.CreateSource(22)
	sendOn(t, src, []byte("best effort"))
	if err := consumeWithin(sink, new(Delivery), 2*time.Second); err != nil {
		t.Fatalf("best-effort delivery blocked: %v", err)
	}
}

// TestConcurrentSessionsIsolated runs several sessions pumping distinct
// channels simultaneously and checks that nothing crosses over.
func TestConcurrentSessionsIsolated(t *testing.T) {
	w := buildWorld(t, datapath.Caps{DPDK: true}, datapath.Caps{DPDK: true}, nil)
	const sessions = 4
	const perSession = 50

	type lane struct {
		src  *SourceHandle
		sink *SinkHandle
		ch   uint32
	}
	lanes := make([]lane, sessions)
	for i := range lanes {
		connA, err := w.a.Connect()
		if err != nil {
			t.Fatal(err)
		}
		connB, err := w.b.Connect()
		if err != nil {
			t.Fatal(err)
		}
		stA, _ := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
		stB, _ := connB.OpenStream(qos.Options{Datapath: qos.DatapathFast})
		ch := uint32(100 + i)
		sink, err := stB.CreateSink(ch)
		if err != nil {
			t.Fatal(err)
		}
		waitSubscribed(t, w.a, ch, 1)
		src, err := stA.CreateSource(ch)
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = lane{src: src, sink: sink, ch: ch}
	}

	done := make(chan error, sessions)
	for i := range lanes {
		go func(i int) {
			l := lanes[i]
			for m := 0; m < perSession; m++ {
				var b Buffer
				err := l.src.GetBuffer(&b, 8)
				if err != nil {
					done <- err
					return
				}
				b.Payload[0] = byte(i)
				b.Payload[1] = byte(m)
				for {
					_, err = l.src.Emit(&b, 8)
					if err != ErrBackpressure {
						break
					}
					time.Sleep(5 * time.Microsecond)
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for range lanes {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range lanes {
		for m := 0; m < perSession; m++ {
			var d Delivery
			if err := consumeWithin(l.sink, &d, 2*time.Second); err != nil {
				t.Fatalf("lane %d msg %d: %v", i, m, err)
			}
			if d.Payload[0] != byte(i) {
				t.Fatalf("lane %d received lane %d's message", i, d.Payload[0])
			}
			if d.Payload[1] != byte(m) {
				t.Fatalf("lane %d: message %d arrived as %d (order broken)", i, m, d.Payload[1])
			}
			l.sink.Release(&d)
		}
	}
}

// TestBackpressureSurfaceToEmitter fills the TX ring of a session no pass
// drains and checks Emit reports ErrBackpressure instead of blocking or
// dropping silently.
func TestBackpressureSurfaceToEmitter(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, nil)

	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	src, _ := st.CreateSource(1)
	sawBackpressure := false
	for i := 0; i < txRingDepth+10; i++ {
		var b Buffer
		if err := src.GetBuffer(&b, 16); err != nil {
			break // pool exhausted first is also acceptable backpressure
		}
		if _, err := src.Emit(&b, 16); err == ErrBackpressure {
			sawBackpressure = true
			src.Abort(&b)
			break
		}
	}
	if !sawBackpressure {
		t.Error("full TX ring never reported ErrBackpressure")
	}
}

// TestStatsAccumulate sanity-checks the runtime counters across a small
// workload.
func TestStatsAccumulate(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, nil)
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	stA, _ := connA.OpenStream(qos.Options{})
	stB, _ := connB.OpenStream(qos.Options{})
	sink, _ := stB.CreateSink(31)
	localSink, _ := stA.CreateSink(31)
	w.Settle() // the SUB
	src, _ := stA.CreateSource(31)

	const n = 10
	for i := 0; i < n; i++ {
		sendOn(t, src, []byte{byte(i)})
	}
	w.Settle()
	for i := 0; i < n; i++ {
		for _, k := range []*SinkHandle{sink, localSink} {
			var d Delivery
			if err := k.TryConsume(&d); err != nil {
				t.Fatal(err)
			}
			k.Release(&d)
		}
	}
	sa, sb := w.a.Stats(), w.b.Stats()
	if sa.TxMessages != n {
		t.Errorf("A TxMessages = %d, want %d", sa.TxMessages, n)
	}
	if sa.LocalDeliveries != n {
		t.Errorf("A LocalDeliveries = %d, want %d", sa.LocalDeliveries, n)
	}
	if sb.RxMessages != n {
		t.Errorf("B RxMessages = %d, want %d", sb.RxMessages, n)
	}
	if ep := w.b.techs[model.TechKernelUDP].ep.Stats(); ep.RxPackets < n {
		t.Errorf("B endpoint stats missing: %+v", ep)
	}
}

// TestMultiPollerPerPlugin runs two polling threads per plugin (§8's
// receive-side parallelism) and checks ordering-insensitive delivery of a
// concurrent workload.
func TestMultiPollerPerPlugin(t *testing.T) {
	w := buildWorld(t, datapath.Caps{DPDK: true}, datapath.Caps{DPDK: true}, func(c *Config) {
		c.PollersPerPlugin = 2
	})
	if got := len(w.a.pollers); got != 4 { // 2 plugins x 2 pollers
		t.Fatalf("pollers = %d, want 4", got)
	}
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	stA, _ := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	stB, _ := connB.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	sink, _ := stB.CreateSink(41)
	waitSubscribed(t, w.a, 41, 1)
	src, _ := stA.CreateSource(41)

	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			var b Buffer
			if err := src.GetBuffer(&b, 4); err != nil {
				return
			}
			b.Payload[0] = byte(i)
			for {
				if _, err := src.Emit(&b, 4); err != ErrBackpressure {
					break
				}
				time.Sleep(5 * time.Microsecond)
			}
		}
	}()
	seen := make(map[byte]bool, n)
	for i := 0; i < n; i++ {
		var d Delivery
		if err := consumeWithin(sink, &d, 5*time.Second); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		seen[d.Payload[0]] = true
		sink.Release(&d)
	}
	if len(seen) != n {
		t.Errorf("distinct messages = %d, want %d", len(seen), n)
	}
}

// TestPortFailureSurfacesInOutcome kills the peer-facing NIC port under
// the sender and checks the failure shows up in the emit outcome instead
// of being swallowed.
func TestPortFailureSurfacesInOutcome(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	stA, _ := connA.OpenStream(qos.Options{})
	stB, _ := connB.OpenStream(qos.Options{})
	_, err := stB.CreateSink(61)
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribed(t, w.a, 61, 1)
	src, _ := stA.CreateSource(61)

	// Kill A's kernel port: the "NIC died" failure mode.
	w.a.cfg.Ports[model.TechKernelUDP].Close()

	seq := sendOn(t, src, []byte("doomed"))
	if o := waitOutcome(t, src, seq); o.Err == nil || o.RemotePeers != 0 {
		t.Fatalf("outcome = %+v, want send error and zero peers", o)
	}
}

// TestInspectReportsState smoke-tests the operator view.
func TestInspectReportsState(t *testing.T) {
	w := newStepped(t, datapath.Caps{DPDK: true}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	st.CreateSink(71)
	w.Settle() // the SUB
	out := w.a.Inspect()
	for _, want := range []string{"runtime \"nodeA\"", "kernel-udp", "dpdk", "sessions: 1", "channel 71", "memory pools"} {
		if !wantSubstring(out, want) {
			t.Errorf("Inspect missing %q in:\n%s", want, out)
		}
	}
	// The peer learned the subscription and reports it.
	if out := w.b.Inspect(); !wantSubstring(out, "remote subscribers nodeA") {
		t.Errorf("peer Inspect missing remote subscription:\n%s", out)
	}
}
