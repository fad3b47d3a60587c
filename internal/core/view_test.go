package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// kernelIP is the address a runtime's control messages come from.
func kernelIP(rt *Runtime) netstack.IPv4 { return rt.cfg.Ports[model.TechKernelUDP].IP() }

// control applies a SUB/UNSUB to rt as if from had sent it: the publish has
// happened when it returns, which is what lets a test stand on either side
// of it.
func control(rt *Runtime, kind msgKind, channel uint32, tech model.Tech, from netstack.IPv4) {
	rt.handleControl(header{kind: kind, channel: channel, aux: uint8(tech)}, from)
}

// emitRetrying emits one payload, retrying while the lane, the tenant's
// quota or the pool pushes back.
func emitRetrying(src *SourceHandle, payload []byte) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var b Buffer
		err := src.GetBuffer(&b, len(payload))
		if err == nil {
			copy(b.Payload, payload)
			if _, err = src.Emit(&b, len(payload)); err == nil {
				return nil
			}
			src.Abort(&b)
		}
		retry := errors.Is(err, ErrBackpressure) || errors.Is(err, ErrTenantQuota) ||
			errors.Is(err, mempool.ErrQuota) || errors.Is(err, mempool.ErrExhausted)
		if !retry || time.Now().After(deadline) {
			return err
		}
		runtime.Gosched()
	}
}

// TestViewChurnUnderTraffic keeps a 1 → 2-sink local stream and a remote
// stream flowing while other goroutines, on both nodes and under two
// tenants, connect, open streams, create sources and sinks, emit, consume
// and close in a loop — every step of which republishes the view the
// steady streams' pollers are reading, two per technology. Afterwards every
// steady message is a consume or a reason-coded drop, each technology's
// scheduler holds nothing, pools and tenant
// charges are back at baseline, every client-side counter summed over the
// tenants (the default included) is the node's figure, and no goroutine is
// left. Run it under -race.
func TestViewChurnUnderTraffic(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	caps := datapath.Caps{DPDK: true}
	w := buildWorld(t, caps, caps, func(c *Config) {
		c.Tenants = []TenantSpec{{Name: "acme", TxTokens: 16, MemSlots: 64}}
		c.PollersPerPlugin = 2
	})
	freeA, freeB := fmt.Sprint(w.a.mm.FreeSlots()), fmt.Sprint(w.b.mm.FreeSlots())

	const localCh, remoteCh, window = 1, 2, 256
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	local, _ := connA.OpenStream(qos.Options{})
	fastA, _ := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	fastB, _ := connB.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	var sinks [3]*SinkHandle // two local, one remote
	var err error
	for i, mk := range []func() (*SinkHandle, error){
		func() (*SinkHandle, error) { return local.CreateSink(localCh) },
		func() (*SinkHandle, error) { return local.CreateSink(localCh) },
		func() (*SinkHandle, error) { return fastB.CreateSink(remoteCh) },
	} {
		if sinks[i], err = mk(); err != nil {
			t.Fatal(err)
		}
	}
	waitSubscribed(t, w.a, remoteCh, 1)
	localSrc, _ := local.CreateSource(localCh)
	remoteSrc, _ := fastA.CreateSource(remoteCh)

	// Steady traffic: each consumer counts until told the books are closed;
	// each emitter stays within a window of its slowest consumer.
	var consumed [3]atomic.Uint64
	var emitted [2]atomic.Uint64
	stop, drained := make(chan struct{}), make(chan struct{})
	var emitters, consumers, churn sync.WaitGroup
	for i, k := range sinks {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			var d Delivery
			for k.Consume(&d, drained) == nil {
				consumed[i].Add(1)
				k.Release(&d)
			}
		}()
	}
	emitter := func(src *SourceHandle, n *atomic.Uint64, behind func() uint64) {
		defer emitters.Done()
		payload := make([]byte, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n.Load()-behind() >= window {
				runtime.Gosched()
				continue
			}
			if err := emitRetrying(src, payload); err != nil {
				t.Errorf("steady emit: %v", err)
				return
			}
			n.Add(1)
		}
	}
	emitters.Add(2)
	go emitter(localSrc, &emitted[0], func() uint64 { return min(consumed[0].Load(), consumed[1].Load()) })
	go emitter(remoteSrc, &emitted[1], consumed[2].Load)

	// Churn: whole sessions come and go on channels of their own.
	var rounds atomic.Uint64
	churner := func(rt *Runtime, id int) {
		defer churn.Done()
		opts := []qos.Options{{}, {Datapath: qos.DatapathFast}, rtcOpts}
		payload := []byte("churn")
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := rt.ConnectTenant([]string{"", "acme"}[round%2])
			if err != nil {
				t.Errorf("churn connect: %v", err)
				return
			}
			st, err := conn.OpenStream(opts[round%len(opts)])
			if err != nil {
				t.Errorf("churn stream: %v", err)
				return
			}
			ch := uint32(100 + id)
			sink, err1 := st.CreateSink(ch)
			src, err2 := st.CreateSource(ch)
			if err1 != nil || err2 != nil {
				t.Errorf("churn endpoints: %v, %v", err1, err2)
				return
			}
			for i := 0; i < 8; i++ {
				if err := emitRetrying(src, payload); err != nil {
					t.Errorf("churn emit: %v", err)
					return
				}
			}
			for i := 0; i < 8; i++ {
				var d Delivery
				if err := consumeWithin(sink, &d, 2*time.Second); err != nil {
					t.Errorf("churn consume %d of round %d: %v", i, round, err)
					return
				}
				sink.Release(&d)
			}
			if err := conn.Close(); err != nil {
				t.Errorf("churn close: %v", err)
			}
			rounds.Add(1)
		}
	}
	for id, rt := range []*Runtime{w.a, w.a, w.b} {
		churn.Add(1)
		go churner(rt, id)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	churn.Wait()
	emitters.Wait()

	// The books: emits × sinks = consumes + drops, each drop with a reason.
	books := func() (owed, settled [2]uint64) {
		sa, sb := w.a.MetricsSnapshot(), w.b.MetricsSnapshot()
		owed = [2]uint64{2 * emitted[0].Load(), emitted[1].Load()}
		settled[0] = consumed[0].Load() + consumed[1].Load() + sa.Counters[telemetry.CtrRingFullDrops]
		settled[1] = consumed[2].Load() + sb.Counters[telemetry.CtrRingFullDrops] + sb.Counters[telemetry.CtrNoSinkDrops] +
			sb.Counters[telemetry.CtrRxMalformedDrops] + sb.FabricDrops + sb.RxAllocDrops
		return owed, settled
	}
	owed, settled := books()
	for deadline := time.Now().Add(5 * time.Second); owed != settled && time.Now().Before(deadline); owed, settled = books() {
		time.Sleep(time.Millisecond)
	}
	close(drained)
	consumers.Wait()
	if owed != settled {
		t.Errorf("local and remote streams owe %v deliveries, settled %v", owed, settled)
	}
	for _, rt := range []*Runtime{w.a, w.b} {
		for tech, st := range rt.techs {
			if held := st.egress.Pending(); held != 0 {
				t.Errorf("%s %s at quiescence: the scheduler holds %d", rt.name, tech, held)
			}
		}
	}
	t.Logf("%d local and %d remote emits under %d churn rounds", emitted[0].Load(), emitted[1].Load(), rounds.Load())
	if emitted[0].Load() == 0 || emitted[1].Load() == 0 || rounds.Load() < 3 {
		t.Errorf("not a churn under traffic: %d local and %d remote emits, %d churn rounds",
			emitted[0].Load(), emitted[1].Load(), rounds.Load())
	}
	if got := w.a.tel.Counter(telemetry.CtrTxMessages); got != emitted[1].Load() {
		t.Errorf("tx_messages = %d for %d remote emits", got, emitted[1].Load())
	}

	connA.Close()
	connB.Close()
	waitFree(t, w.a, freeA)
	waitFree(t, w.b, freeB)
	for _, rt := range []*Runtime{w.a, w.b} {
		ten := rt.tenantByName["acme"]
		if in, used := ten.inflight.Load(), ten.budget.Used(); in != 0 || used != 0 {
			t.Errorf("%s: tenant acme holds %d TX tokens and %d slots after its sessions closed", rt.name, in, used)
		}
		// Per tenant: what the handles of all those sessions counted is in
		// exactly one tenant's view, and acme's churn is in acme's.
		wantTenantsSumToNode(t, rt)
		if v := tenantView(rt, ten); v.Counters[telemetry.CtrEmits] == 0 || v.Counters[telemetry.CtrEmits] != v.Counters[telemetry.CtrConsumes] {
			t.Errorf("%s: tenant acme's view holds %d emits and %d consumes of its one-sink churn rounds",
				rt.name, v.Counters[telemetry.CtrEmits], v.Counters[telemetry.CtrConsumes])
		}
		// The last UNSUBs are still on their way when Close returns.
		empty := func() bool {
			v := rt.view.Load()
			return len(v.lanes[model.TechKernelUDP])+len(v.lanes[model.TechDPDK])+len(v.routes) == 0
		}
		for deadline := time.Now().Add(2 * time.Second); !empty() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if !empty() {
			t.Errorf("%s: with every session closed the view still holds %+v", rt.name, rt.view.Load())
		}
	}
	w.a.Close()
	w.b.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines, %d before the test", got, goroutines)
	}
}

// TestHopResolvedAtSubscribe: the plane toward a subscriber is chosen when
// its SUB is applied and only then.
func TestHopResolvedAtSubscribe(t *testing.T) {
	// The TestHeterogeneousDowngrade world: a DPDK stream toward a peer that
	// has the kernel plane only.
	t.Run("downgrade resolved once", func(t *testing.T) {
		w := buildWorld(t, datapath.Caps{DPDK: true}, datapath.Caps{}, nil)
		connA, _ := w.a.Connect()
		connB, _ := w.b.Connect()
		stA, _ := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
		stB, _ := connB.OpenStream(qos.Options{})
		sink, _ := stB.CreateSink(3)
		waitSubscribed(t, w.a, 3, 1)
		src, _ := stA.CreateSource(3)

		v := w.a.view.Load()
		via := v.routes[3].hops[0].via[model.TechDPDK]
		want := netstack.Endpoint{IP: kernelIP(w.b), Port: TechPort(model.TechKernelUDP)}
		if via.target != w.a.techs[model.TechKernelUDP] || !via.downgraded || via.err != nil || via.dst != want {
			t.Fatalf("DPDK stream → kernel-only peer resolved to %+v", via)
		}
		const n = 50
		for i := 0; i < n; i++ {
			sendOn(t, src, []byte("downgraded"))
			var d Delivery
			if err := consumeWithin(sink, &d, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			sink.Release(&d)
		}
		if got := w.a.Stats().TechDowngrades; got != n {
			t.Errorf("tech_downgrades = %d for %d sends", got, n)
		}
		// Nothing resolves outside handleControl, and handleControl always
		// publishes: the same view means the same, single resolution.
		if w.a.view.Load() != v {
			t.Error("the view was republished while messages flowed")
		}
	})

	t.Run("no usable plane", func(t *testing.T) {
		ghost := netstack.IPv4{10, 9, 9, 9}
		w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) {
			if c.Name == "nodeA" { // the peer is configured with a DPDK port only; this host has none
				c.Peers = []Peer{{Name: "nodeB", Addrs: map[model.Tech]netstack.IPv4{model.TechDPDK: ghost}}}
			}
		})
		control(w.a, kindSub, 4, model.TechDPDK, ghost)
		if w.a.SubscriberCount(4) != 1 {
			t.Fatal("subscription not applied")
		}
		conn, _ := w.a.Connect()
		st, _ := conn.OpenStream(qos.Options{})
		src, _ := st.CreateSource(4)
		var first error
		const n = 5
		for i := 0; i < n; i++ {
			o := waitOutcome(t, src, sendOn(t, src, []byte("nowhere")))
			var unreachable *peerUnreachableError
			if !errors.As(o.Err, &unreachable) || o.RemotePeers != 0 {
				t.Fatalf("emit %d: outcome %+v, want the peer unreachable and no remote delivery", i, o)
			}
			if first == nil {
				first = o.Err
			}
			if o.Err != first {
				t.Errorf("emit %d failed with another error value than the first", i)
			}
		}
		if got := w.a.Stats().TechDowngrades; got != n {
			t.Errorf("tech_downgrades = %d for %d sends", got, n)
		}
	})

	// The technology a peer asks for matters when it lacks the stream's: a
	// peer that re-subscribes with another one is reached on another plane.
	t.Run("resubscribe republishes", func(t *testing.T) {
		w := buildWorld(t, fullCaps, datapath.Caps{XDP: true}, nil)
		connA, _ := w.a.Connect()
		connB, _ := w.b.Connect()
		stA, _ := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
		stB, _ := connB.OpenStream(qos.Options{})
		sink, _ := stB.CreateSink(5)
		waitSubscribed(t, w.a, 5, 1)
		src, _ := stA.CreateSource(5)
		if stA.Tech() != model.TechRDMA || stB.Tech() != model.TechKernelUDP {
			t.Fatalf("streams on %s and %s, want rdma and kernel-udp", stA.Tech(), stB.Tech())
		}
		target := func() model.Tech { return w.a.view.Load().routes[5].hops[0].via[model.TechRDMA].target.tech }
		if got := target(); got != model.TechKernelUDP {
			t.Fatalf("subscribed with kernel-udp, reached over %s", got)
		}
		v := w.a.view.Load()
		control(w.a, kindUnsub, 5, model.TechKernelUDP, kernelIP(w.b))
		if w.a.SubscriberCount(5) != 0 || w.a.view.Load() == v {
			t.Fatal("UNSUB not published")
		}
		control(w.a, kindSub, 5, model.TechXDP, kernelIP(w.b))
		if got := target(); got != model.TechXDP {
			t.Fatalf("re-subscribed with xdp, reached over %s", got)
		}
		sendOn(t, src, []byte("over xdp"))
		var d Delivery
		if err := consumeWithin(sink, &d, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		sink.Release(&d)
		if rx := w.b.Stats().Endpoint[model.TechXDP].RxPackets; rx != 1 {
			t.Errorf("peer's xdp endpoint received %d packets, want the 1 message", rx)
		}
	})
}

// TestRTCSeesOneView: sinks and subscribers of a channel are read from one
// view, so a remote SUB flips the run-to-completion path to the queued one
// exactly at the publish, and the UNSUB flips it back.
func TestRTCSeesOneView(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(rtcOpts)
	sink, _ := st.CreateSink(40)
	src, _ := st.CreateSource(40)
	step := func(what string, rtc, fallbacks uint64) {
		t.Helper()
		w.roundTrip(src, sink)
		if s := w.a.Stats(); s.RTCDeliveries != rtc || s.RTCFallbacks != fallbacks {
			t.Fatalf("%s: %d run-to-completion deliveries and %d fallbacks, want %d and %d",
				what, s.RTCDeliveries, s.RTCFallbacks, rtc, fallbacks)
		}
	}
	step("local only", 1, 0)
	control(w.a, kindSub, 40, model.TechKernelUDP, kernelIP(w.b))
	step("remote subscriber", 1, 1)
	control(w.a, kindUnsub, 40, model.TechKernelUDP, kernelIP(w.b))
	step("local only again", 2, 1)
}

// TestControlFloodIsBounded: control datagrams nobody configured — 10 000
// SUBs from as many addresses outside Peers, then a known peer naming a
// technology that does not exist — each cost a warning once upon a time.
// They now leave a bounded list and a count, every RX slot back in the pool
// and the view as it was.
func TestControlFloodIsBounded(t *testing.T) {
	caps := datapath.Caps{DPDK: true}
	w := buildWorld(t, caps, caps, nil)
	from, to := w.a.cfg.Ports[model.TechDPDK], w.b.cfg.Ports[model.TechDPDK]
	free := fmt.Sprint(w.b.mm.FreeSlots())
	v := w.b.view.Load()
	sub := func(src netstack.IPv4, aux uint8) {
		buf := make([]byte, netstack.HeadersLen+HeaderLen)
		encodeHeader(buf[netstack.HeadersLen:], header{kind: kindSub, channel: 9, aux: aux})
		n, err := netstack.EncodeUDP(buf, netstack.FrameMeta{
			SrcMAC: from.MAC(), DstMAC: to.MAC(),
			Src: netstack.Endpoint{IP: src, Port: TechPort(model.TechDPDK)},
			Dst: netstack.Endpoint{IP: to.IP(), Port: TechPort(model.TechDPDK)},
		}, HeaderLen, netstack.JumboMTU)
		if err != nil {
			t.Fatal(err)
		}
		if err := from.Transmit(buf[:n], 0, timebase.Breakdown{}); err != nil {
			t.Fatal(err)
		}
	}
	const strangers, badTech = 10000, 100
	for i := 0; i < strangers+badTech; i++ {
		if i < strangers {
			sub(netstack.IPv4{172, 16, byte(i >> 8), byte(i)}, uint8(model.TechKernelUDP))
		} else {
			sub(from.IP(), 99)
		}
		if i%256 == 255 {
			waitFree(t, w.b, free) // a frame's slot is released once it has been handled
		}
	}
	waitFree(t, w.b, free)

	warnings := w.b.Warnings()
	suppressed := fmt.Sprint(strangers + badTech - maxWarnings)
	if len(warnings) != maxWarnings+1 || !strings.HasPrefix(warnings[maxWarnings], suppressed+" ") {
		t.Errorf("%d warnings ending in %q, want %d and a line counting %s more",
			len(warnings), warnings[len(warnings)-1], maxWarnings, suppressed)
	}
	if out := w.b.Inspect(); !strings.Contains(out, suppressed+" more suppressed") {
		t.Errorf("Inspect does not report the %s suppressed warnings:\n%s", suppressed, out)
	}
	if w.b.view.Load() != v || w.b.SubscriberCount(9) != 0 {
		t.Error("a rejected control datagram republished the view")
	}
	if s := w.b.MetricsSnapshot(); s.FabricDrops != 0 || s.RxAllocDrops != 0 {
		t.Errorf("%d fabric and %d rx-alloc drops: part of the flood never reached handleControl", s.FabricDrops, s.RxAllocDrops)
	}
}

// TestControlAppliedInArrivalOrder: node B's two kernel pollers take a
// peer's SUB and then its UNSUB for one channel in consecutive polls, and
// the second poller's delivery half runs before the first's. Control is
// applied under the endpoint lock, in the order the polls took it, so the
// subscription is gone either way.
func TestControlAppliedInArrivalOrder(t *testing.T) {
	w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) { c.PollersPerPlugin = 2 })
	st := w.b.techs[model.TechKernelUDP]
	first, second := w.b.pollers[0], w.b.pollers[1]
	conn, _ := w.a.Connect()
	stream, _ := conn.OpenStream(qos.Options{})
	sink, err := stream.CreateSink(66) // the SUB
	if err != nil {
		t.Fatal(err)
	}
	took := w.b.takeRX(first, st)
	sink.Close() // the UNSUB
	tookToo := w.b.takeRX(second, st)
	if took != 1 || tookToo != 1 {
		t.Fatalf("the polls took %d and %d frames, want one each", took, tookToo)
	}
	w.b.deliverRX(second, tookToo)
	w.b.deliverRX(first, took)
	if hops := w.b.view.Load().routes[66].hops; len(hops) != 0 {
		t.Errorf("after SUB then UNSUB node B still sends channel 66 to %d peers", len(hops))
	}
}
