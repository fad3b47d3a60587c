package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/sched"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// world is a two-node test topology with one runtime per node.
type world struct {
	net  *fabric.Network
	a, b *Runtime
}

// buildWorld wires two hosts with the given capabilities: one fabric port
// per technology per host, direct links between matching planes.
func buildWorld(t *testing.T, capsA, capsB datapath.Caps, tune func(*Config)) *world {
	t.Helper()
	return wireWorld(t, capsA, capsB, tune, NewRuntime)
}

// wireWorld is buildWorld with the runtime constructor as a parameter: the
// stepped world (stepper_test.go) builds its runtimes without starting them.
func wireWorld(t *testing.T, capsA, capsB datapath.Caps, tune func(*Config), open func(Config) (*Runtime, error)) *world {
	t.Helper()
	net := fabric.New(42)
	mkPorts := func(host byte, caps datapath.Caps) map[model.Tech]*fabric.Port {
		ports := make(map[model.Tech]*fabric.Port)
		for _, tech := range caps.List() {
			ip := netstack.IPv4{10, 0, byte(tech), host}
			p, err := net.AddHost(fmt.Sprintf("h%d-%s", host, tech), ip)
			if err != nil {
				t.Fatal(err)
			}
			ports[tech] = p
		}
		return ports
	}
	portsA := mkPorts(1, capsA)
	portsB := mkPorts(2, capsB)
	for tech, pa := range portsA {
		if pb, ok := portsB[tech]; ok {
			if err := net.ConnectDirect(pa, pb, fabric.DefaultLink); err != nil {
				t.Fatal(err)
			}
		}
	}
	addrsOf := func(ports map[model.Tech]*fabric.Port) map[model.Tech]netstack.IPv4 {
		m := make(map[model.Tech]netstack.IPv4, len(ports))
		for tech, p := range ports {
			m[tech] = p.IP()
		}
		return m
	}
	cfgA := Config{
		Name: "nodeA", Caps: capsA, Ports: portsA, Resolver: net.Resolver(),
		Peers: []Peer{{Name: "nodeB", Addrs: addrsOf(portsB)}},
	}
	cfgB := Config{
		Name: "nodeB", Caps: capsB, Ports: portsB, Resolver: net.Resolver(),
		Peers: []Peer{{Name: "nodeA", Addrs: addrsOf(portsA)}},
	}
	if tune != nil {
		tune(&cfgA)
		tune(&cfgB)
	}
	a, err := open(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := open(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return &world{net: net, a: a, b: b}
}

// testGCL is the gate control list of the gate tests: a 100 µs window for
// class 7 alone, then 100 µs for the rest.
var testGCL = sched.GCL{
	{Duration: 100 * time.Microsecond, Gates: 1 << 7}, // class 7 only
	{Duration: 100 * time.Microsecond, Gates: 0x7F},   // the rest
}

// fullCaps has every acceleration technology.
var fullCaps = datapath.Caps{DPDK: true, XDP: true, RDMA: true}

// waitSubscribed blocks until the runtime learns about n remote
// subscribers on the channel.
func waitSubscribed(t *testing.T, r *Runtime, channel uint32, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.SubscriberCount(channel) >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("channel %d: subscription from %d peers not learned", channel, n)
}

// sendOn emits one payload on a source and fails the test on error.
func sendOn(t *testing.T, src *SourceHandle, payload []byte) uint32 {
	t.Helper()
	var b Buffer
	if err := src.GetBuffer(&b, len(payload)); err != nil {
		t.Fatal(err)
	}
	copy(b.Payload, payload)
	seq, err := src.Emit(&b, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// consumeWithin is a blocking Consume under a liveness guard: Consume has
// no timeout of its own, so the guard is a deadline context's Done, and a
// message that never arrives fails the caller with ErrCanceled after limit
// instead of hanging the suite.
func consumeWithin(k *SinkHandle, d *Delivery, limit time.Duration) error {
	guard, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	return k.Consume(d, guard.Done())
}

// waitOutcome polls until the runtime has recorded the fate of an emitted
// message.
func waitOutcome(t *testing.T, src *SourceHandle, seq uint32) Outcome {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if o, ok := src.Outcome(seq); ok {
			return o
		}
		if time.Now().After(deadline) {
			t.Fatalf("outcome of seq %d never recorded", seq)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// eventually polls cond until it holds or two seconds have passed, and
// reports whether it held. What a poller counts or closes after it has
// handed a message on, the message's consumer can beat it to.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// totalFree sums the free slots over every pool class.
func totalFree(rt *Runtime) int {
	n := 0
	for _, f := range rt.mm.FreeSlots() {
		n += f
	}
	return n
}

func TestRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(Config{}); err == nil {
		t.Error("missing kernel port: want error")
	}
	net := fabric.New(1)
	p, _ := net.AddHost("x", netstack.IPv4{10, 0, 1, 1})
	if _, err := NewRuntime(Config{Ports: map[model.Tech]*fabric.Port{model.TechKernelUDP: p}}); err == nil {
		t.Error("missing resolver: want error")
	}
}

func TestSlowStreamRemoteDelivery(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()

	stA, err := connA.OpenStream(qos.Options{Datapath: qos.DatapathSlow})
	if err != nil {
		t.Fatal(err)
	}
	if stA.Tech() != model.TechKernelUDP || stA.FellBack() {
		t.Fatalf("slow stream mapped to %v (fellback=%v)", stA.Tech(), stA.FellBack())
	}
	stB, _ := connB.OpenStream(qos.Options{Datapath: qos.DatapathSlow})
	sink, err := stB.CreateSink(100)
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribed(t, w.a, 100, 1)

	src, err := stA.CreateSource(100)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello from A over the kernel plane")
	sendOn(t, src, msg)

	var d Delivery
	if err := consumeWithin(sink, &d, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	defer sink.Release(&d)
	if !bytes.Equal(d.Payload, msg) {
		t.Errorf("payload = %q, want %q", d.Payload, msg)
	}
	// Kernel one-way with runtime overhead ≈ 6.8 µs at this size.
	if d.VTime.Duration() < 5*time.Microsecond || d.VTime.Duration() > 9*time.Microsecond {
		t.Errorf("one-way vtime = %v, want ≈6.8µs", d.VTime)
	}
}

func TestFastStreamUsesRDMAWhenAvailable(t *testing.T) {
	w := buildWorld(t, fullCaps, fullCaps, nil)
	connA, _ := w.a.Connect()
	st, err := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tech() != model.TechRDMA || st.FellBack() {
		t.Errorf("fast stream on full caps = %v (fellback=%v), want rdma", st.Tech(), st.FellBack())
	}
}

func TestFastStreamPingPongOverDPDK(t *testing.T) {
	caps := datapath.Caps{DPDK: true}
	w := buildWorld(t, caps, caps, nil)
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()

	const pingCh, pongCh = 1, 2
	stA, _ := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	stB, _ := connB.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	if stA.Tech() != model.TechDPDK {
		t.Fatalf("fast stream mapped to %v, want dpdk", stA.Tech())
	}

	pingSink, _ := stB.CreateSink(pingCh)
	pongSink, _ := stA.CreateSink(pongCh)
	waitSubscribed(t, w.a, pingCh, 1)
	waitSubscribed(t, w.b, pongCh, 1)
	pingSrc, _ := stA.CreateSource(pingCh)
	pongSrc, _ := stB.CreateSource(pongCh)

	payload := make([]byte, 64)
	const rounds = 30
	var rtts []time.Duration
	for i := 0; i < rounds; i++ {
		sendOn(t, pingSrc, payload)
		var req Delivery
		if err := consumeWithin(pingSink, &req, 2*time.Second); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		// Echo: continue the request's virtual clock on the response.
		var resp Buffer
		if err := pongSrc.GetBuffer(&resp, len(req.Payload)); err != nil {
			t.Fatal(err)
		}
		copy(resp.Payload, req.Payload)
		resp.VTime = req.VTime
		resp.Breakdown = req.Breakdown
		if _, err := pongSrc.Emit(&resp, len(req.Payload)); err != nil {
			t.Fatal(err)
		}
		pingSink.Release(&req)

		var pong Delivery
		if err := consumeWithin(pongSink, &pong, 2*time.Second); err != nil {
			t.Fatalf("round %d pong: %v", i, err)
		}
		rtts = append(rtts, pong.VTime.Duration())
		pongSink.Release(&pong)
	}
	// INSANE fast RTT ≈ 4.95 µs (64 B, local testbed).
	for _, rtt := range rtts {
		if rtt < 4500*time.Nanosecond || rtt > 5500*time.Nanosecond {
			t.Fatalf("INSANE fast RTT = %v, want ≈4.95µs", rtt)
		}
	}
}

func TestCoLocatedSharedMemoryDelivery(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	sink, _ := st.CreateSink(5)
	src, _ := st.CreateSource(5)

	msg := []byte("co-located zero-copy")
	sendOn(t, src, msg)
	w.Settle()
	var d Delivery
	if err := sink.TryConsume(&d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, msg) {
		t.Errorf("payload = %q", d.Payload)
	}
	// Shared-memory forwarding never sends data to the network (the one
	// kernel TX packet is the sink's SUB control broadcast).
	if got := w.a.Stats().TxMessages; got != 0 {
		t.Errorf("co-located delivery hit the wire: %d data messages", got)
	}
	if got := w.a.Stats().LocalDeliveries; got != 1 {
		t.Errorf("LocalDeliveries = %d, want 1", got)
	}
	// Local delivery is ns-scale: IPC + sched + delivery only.
	if d.VTime.Duration() > 2*time.Microsecond {
		t.Errorf("local delivery vtime = %v, want sub-2µs", d.VTime)
	}
	sink.Release(&d)
}

func TestMultiSinkFanoutSharesOneSlot(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	var sinks []*SinkHandle
	for i := 0; i < 3; i++ {
		k, err := st.CreateSink(9)
		if err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, k)
	}
	src, _ := st.CreateSource(9)
	msg := []byte("fanout")
	sendOn(t, src, msg)

	deliveries := make([]Delivery, len(sinks))
	for i, k := range sinks {
		d := &deliveries[i]
		if err := consumeWithin(k, d, 2*time.Second); err != nil {
			t.Fatalf("sink %d: %v", i, err)
		}
		if !bytes.Equal(d.Payload, msg) {
			t.Errorf("sink %d payload = %q", i, d.Payload)
		}
	}
	// All sinks must see the same slot (zero-copy fanout).
	for _, d := range deliveries[1:] {
		if d.Slot != deliveries[0].Slot {
			t.Error("fanout delivered different slots; want shared refcounted slot")
		}
	}
	free := w.a.Mem().FreeSlots()
	for i, k := range sinks {
		k.Release(&deliveries[i])
	}
	after := w.a.Mem().FreeSlots()
	if after[0] != free[0]+1 {
		t.Errorf("slot not recycled exactly once: %v → %v", free, after)
	}
}

func TestEmitOutcome(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	stA, _ := connA.OpenStream(qos.Options{})
	stB, _ := connB.OpenStream(qos.Options{})
	sinkLocal, _ := stA.CreateSink(7)
	sinkRemote, _ := stB.CreateSink(7)
	waitSubscribed(t, w.a, 7, 1)
	src, _ := stA.CreateSource(7)

	seq := sendOn(t, src, []byte("outcome"))
	if o := waitOutcome(t, src, seq); o.LocalSinks != 1 || o.RemotePeers != 1 || o.Err != nil {
		t.Fatalf("outcome = %+v, want 1 local, 1 remote", o)
	}
	if _, ok := src.Outcome(seq + 1000); ok {
		t.Error("unknown seq returned an outcome")
	}
	// Drain so slots go back.
	var d1 Delivery
	_ = consumeWithin(sinkLocal, &d1, time.Second)
	sinkLocal.Release(&d1)
	var d2 Delivery
	_ = consumeWithin(sinkRemote, &d2, time.Second)
	sinkRemote.Release(&d2)
}

func TestFallbackWarningOnBareHost(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, err := conn.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tech() != model.TechKernelUDP || !st.FellBack() {
		t.Errorf("fast on bare host = %v (fellback=%v), want kernel fallback", st.Tech(), st.FellBack())
	}
	if len(w.a.Warnings()) == 0 {
		t.Error("fallback did not record a warning")
	}
}

// TestHeterogeneousDowngrade reproduces the migration motivation: the
// sender's fast stream maps to DPDK, but the peer only has the kernel
// plane, so the runtime transparently downgrades the transmission.
func TestHeterogeneousDowngrade(t *testing.T) {
	w := buildWorld(t, datapath.Caps{DPDK: true}, datapath.Caps{}, nil)
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()

	stA, _ := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	if stA.Tech() != model.TechDPDK {
		t.Fatalf("sender stream = %v, want dpdk", stA.Tech())
	}
	stB, _ := connB.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	if stB.Tech() != model.TechKernelUDP || !stB.FellBack() {
		t.Fatalf("receiver stream = %v (fellback=%v), want kernel fallback", stB.Tech(), stB.FellBack())
	}
	sink, _ := stB.CreateSink(3)
	waitSubscribed(t, w.a, 3, 1)
	src, _ := stA.CreateSource(3)
	msg := []byte("downgraded delivery")
	sendOn(t, src, msg)

	var d Delivery
	if err := consumeWithin(sink, &d, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, msg) {
		t.Errorf("payload = %q", d.Payload)
	}
	sink.Release(&d)
	if w.a.Stats().TechDowngrades == 0 {
		t.Error("downgrade not counted")
	}
}

func TestTimeSensitiveStreamDelivers(t *testing.T) {
	w := buildWorld(t, datapath.Caps{DPDK: true}, datapath.Caps{DPDK: true}, nil)
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	opts := qos.Options{Datapath: qos.DatapathFast, Timing: qos.TimingSensitive, Class: 7}
	stA, err := connA.OpenStream(opts)
	if err != nil {
		t.Fatal(err)
	}
	stB, _ := connB.OpenStream(opts)
	sink, _ := stB.CreateSink(11)
	waitSubscribed(t, w.a, 11, 1)
	src, _ := stA.CreateSource(11)
	sendOn(t, src, []byte("tsn"))
	var d Delivery
	if err := consumeWithin(sink, &d, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sink.Release(&d)
}

func TestSessionCloseReclaimsAndUnsubscribes(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	connB, _ := w.b.Connect()
	stB, _ := connB.OpenStream(qos.Options{})
	_, err := stB.CreateSink(77)
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribed(t, w.a, 77, 1)

	// Leak a buffer on purpose, then close the session.
	connA2, _ := w.b.Connect()
	stA2, _ := connA2.OpenStream(qos.Options{})
	src, _ := stA2.CreateSource(78)
	if err := src.GetBuffer(new(Buffer), 128); err != nil {
		t.Fatal(err)
	}
	if err := connA2.Close(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, warn := range w.b.Warnings() {
		if wantSubstring(warn, "reclaimed 1 leaked slots") {
			found = true
		}
	}
	if !found {
		t.Errorf("leaked slot not reclaimed; warnings: %v", w.b.Warnings())
	}

	// Closing the sink's session withdraws the remote subscription.
	if err := connB.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.a.SubscriberCount(77) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("unsubscription never propagated")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func wantSubstring(s, sub string) bool {
	return len(s) >= len(sub) && bytes.Contains([]byte(s), []byte(sub))
}

func TestClosedHandlesError(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	src, _ := st.CreateSource(1)
	sink, _ := st.CreateSink(1)
	st.Close()

	if err := src.GetBuffer(new(Buffer), 10); !errors.Is(err, ErrClosed) {
		t.Errorf("GetBuffer after close = %v", err)
	}
	if err := sink.TryConsume(new(Delivery)); !errors.Is(err, ErrClosed) {
		t.Errorf("TryConsume after close = %v", err)
	}
	if _, err := st.CreateSource(2); !errors.Is(err, ErrClosed) {
		t.Errorf("CreateSource on closed stream = %v", err)
	}
	conn.Close()
	if _, err := conn.OpenStream(qos.Options{}); !errors.Is(err, ErrClosed) {
		t.Errorf("OpenStream on closed conn = %v", err)
	}
	w.a.Close()
	if _, err := w.a.Connect(); !errors.Is(err, ErrClosed) {
		t.Errorf("Connect on closed runtime = %v", err)
	}
}

func TestNoSinkDropsCounted(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	connB, _ := w.b.Connect()
	stB, _ := connB.OpenStream(qos.Options{})
	sink, _ := stB.CreateSink(50)
	waitSubscribed(t, w.a, 50, 1)
	sink.Close() // B told A it unsubscribed, but suppose the message races:
	// re-subscribe table is already updated synchronously on B itself, so
	// send after local close from A's stale view.
	connA, _ := w.a.Connect()
	stA, _ := connA.OpenStream(qos.Options{})
	src, _ := stA.CreateSource(50)
	sendOn(t, src, []byte("orphan"))

	deadline := time.Now().Add(2 * time.Second)
	for w.b.Stats().NoSinkDrops == 0 && w.a.SubscriberCount(50) > 0 {
		if time.Now().After(deadline) {
			t.Skip("message raced with unsubscription; nothing to assert")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMalformedRxDropsCounted injects frames the receive path must
// discard — cut short, addressed to a UDP port the endpoint does not
// own, carrying no INSANE header — straight onto the wire of each
// technology and checks that each is counted as an rx_malformed_drop,
// whichever layer parses that plane's frames (the packet processing engine
// on DPDK and XDP, the endpoint on kernel UDP and RDMA), that none is
// filed as "no memory", and that its slot is back in the pool. The frames
// reach a parked poller through the port's doorbell.
func TestMalformedRxDropsCounted(t *testing.T) {
	caps := datapath.Caps{DPDK: true, XDP: true, RDMA: true}
	for _, tech := range caps.List() {
		t.Run(tech.String(), func(t *testing.T) {
			w := buildWorld(t, caps, caps, nil)
			from, to := w.a.cfg.Ports[tech], w.b.cfg.Ports[tech]
			frameTo := func(port uint16, payload []byte) []byte {
				buf := make([]byte, netstack.HeadersLen+len(payload))
				copy(buf[netstack.HeadersLen:], payload)
				n, err := netstack.EncodeUDP(buf, netstack.FrameMeta{
					SrcMAC: from.MAC(), DstMAC: to.MAC(),
					Src: netstack.Endpoint{IP: from.IP(), Port: TechPort(tech)},
					Dst: netstack.Endpoint{IP: to.IP(), Port: port},
				}, len(payload), netstack.JumboMTU)
				if err != nil {
					t.Fatal(err)
				}
				return buf[:n]
			}
			var hdr [HeaderLen]byte
			encodeHeader(hdr[:], header{kind: kindData, channel: 9})
			frames := [][]byte{
				frameTo(TechPort(tech), hdr[:])[:netstack.HeadersLen-4], // truncated
				frameTo(TechPort(tech)+1, hdr[:]),                       // wrong UDP port
				frameTo(TechPort(tech), []byte("not an INSANE header")), // bad header
			}

			free := fmt.Sprint(w.b.mm.FreeSlots())
			for _, f := range frames {
				if err := from.Transmit(f, 0, timebase.Breakdown{}); err != nil {
					t.Fatal(err)
				}
			}
			// The poller counts a drop, then releases its slot: wait for both.
			deadline := time.Now().Add(2 * time.Second)
			for {
				snap, got := w.b.MetricsSnapshot(), fmt.Sprint(w.b.mm.FreeSlots())
				drops := snap.Counters[telemetry.CtrRxMalformedDrops]
				if drops == uint64(len(frames)) && got == free {
					if snap.RxAllocDrops != 0 {
						t.Errorf("rx_alloc_drops = %d: a malformed frame was filed as no-memory", snap.RxAllocDrops)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("rx_malformed_drops = %d, want %d; free slots = %s, want %s", drops, len(frames), got, free)
				}
				time.Sleep(100 * time.Microsecond)
			}
			if s := w.b.Stats(); s.RxMessages != 0 || s.NoSinkDrops != 0 {
				t.Errorf("malformed frames reached dispatch: %+v", s)
			}
		})
	}
}

// TestClosedRuntimeIsNeverRung: Close disarms the ports' RX doorbells, so
// a frame that arrives afterwards rings nothing — even with every poller
// left in the state in which a ring would reach it — and is dropped and
// counted on the closed port.
func TestClosedRuntimeIsNeverRung(t *testing.T) {
	caps := datapath.Caps{DPDK: true}
	w := buildWorld(t, caps, caps, nil)
	from, to := w.a.cfg.Ports[model.TechDPDK], w.b.cfg.Ports[model.TechDPDK]
	w.b.Close()
	for _, p := range w.b.pollers {
		p.parked.Store(true)
		select {
		case <-p.kick:
		default:
		}
	}
	if err := from.Transmit(make([]byte, netstack.HeadersLen), 0, timebase.Breakdown{}); err != nil {
		t.Fatal(err)
	}
	for i, p := range w.b.pollers {
		if len(p.kick) != 0 {
			t.Errorf("poller %d of the closed runtime was rung", i)
		}
	}
	if s := to.Stats(); to.Queued() != 0 || s.Dropped != 1 {
		t.Errorf("closed runtime's port: %d queued, %d dropped, want the frame dropped and counted", to.Queued(), s.Dropped)
	}
}

func TestInvalidQoSRejected(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	if _, err := conn.OpenStream(qos.Options{Class: 99}); err == nil {
		t.Error("invalid class accepted")
	}
}

func TestEmitValidation(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	src, _ := st.CreateSource(1)
	var b Buffer
	if err := src.GetBuffer(&b, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Emit(&b, 17); err == nil {
		t.Error("emit beyond buffer accepted")
	}
	if _, err := src.Emit(&b, -1); err == nil {
		t.Error("negative emit accepted")
	}
	src.Abort(&b)
}

func TestSharedPollerMode(t *testing.T) {
	w := buildWorld(t, fullCaps, fullCaps, func(c *Config) { c.SharedPoller = true })
	if len(w.a.pollers) != 1 {
		t.Fatalf("shared poller count = %d, want 1", len(w.a.pollers))
	}
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	stA, _ := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	stB, _ := connB.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	sink, _ := stB.CreateSink(8)
	waitSubscribed(t, w.a, 8, 1)
	src, _ := stA.CreateSource(8)
	sendOn(t, src, []byte("shared poller"))
	var d Delivery
	if err := consumeWithin(sink, &d, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sink.Release(&d)
}

func TestTechsAndCaps(t *testing.T) {
	w := buildWorld(t, fullCaps, datapath.Caps{}, nil)
	if got := len(w.a.Techs()); got != 4 {
		t.Errorf("full-caps Techs = %d, want 4", got)
	}
	if got := len(w.b.Techs()); got != 1 {
		t.Errorf("bare Techs = %d, want 1", got)
	}
	if !w.a.EffectiveCaps().DPDK || w.b.EffectiveCaps().DPDK {
		t.Error("EffectiveCaps wrong")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	buf := make([]byte, HeaderLen)
	h := header{kind: kindData, channel: 0xDEADBEEF, class: 5, aux: 2, seq: 42, sampled: true}
	encodeHeader(buf, h)
	got, err := decodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header = %+v, want %+v", got, h)
	}
	// Corruptions.
	for _, corrupt := range []func([]byte){
		func(b []byte) { b[0] = 0 },   // magic
		func(b []byte) { b[2] = 99 },  // version
		func(b []byte) { b[3] = 200 }, // kind
	} {
		c := append([]byte(nil), buf...)
		corrupt(c)
		if _, err := decodeHeader(c); err == nil {
			t.Error("corrupted header accepted")
		}
	}
	if _, err := decodeHeader(buf[:8]); err == nil {
		t.Error("short header accepted")
	}
	if _, err := techFromAux(99); err == nil {
		t.Error("bad aux tech accepted")
	}
}

// TestCloseReclaimsQueuedTxTokens pins the teardown half of the tenant
// charge/refund balance (DESIGN.md §12/§13): TX tokens still queued in a
// session's lanes when it detaches — here because the runtime stopped
// before any poller could drain them — must be settled by dropConn, with
// the tenant's in-flight count back at zero, every slot back in the
// pool, and the reclaim visible in telemetry.
func TestCloseReclaimsQueuedTxTokens(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, func(cfg *Config) {
		cfg.Tenants = []TenantSpec{{Name: "acme", TxTokens: 8, MemSlots: 8}}
	})
	freeBefore := totalFree(w.a)
	conn, err := w.a.ConnectTenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	st, err := conn.OpenStream(qos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(33)
	if err != nil {
		t.Fatal(err)
	}

	// Stop the pollers first: every Emit below charges the tenant and
	// queues a token in the lane that no poller will ever drain.
	if err := w.a.Close(); err != nil {
		t.Fatal(err)
	}
	const queued = 4
	for i := 0; i < queued; i++ {
		var b Buffer
		if err := src.GetBuffer(&b, 64); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Emit(&b, 64); err != nil {
			t.Fatal(err)
		}
	}
	if got := conn.ten.inflight.Load(); got != queued {
		t.Fatalf("inflight after %d undrained emits = %d", queued, got)
	}

	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := conn.ten.inflight.Load(); got != 0 {
		t.Errorf("inflight after Close = %d, want 0 (TX charges leaked)", got)
	}
	if got := w.a.tel.Counter(telemetry.CtrTxReclaims); got != queued {
		t.Errorf("tx_reclaims = %d, want %d", got, queued)
	}
	if freeAfter := totalFree(w.a); freeAfter != freeBefore {
		t.Errorf("free slots after Close = %d, want %d (slots leaked)", freeAfter, freeBefore)
	}
}
