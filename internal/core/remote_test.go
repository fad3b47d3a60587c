package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// dataFrame builds a DPDK-plane frame carrying an INSANE data message for
// channel, as a peer's packet processing engine would put it on the wire.
func dataFrame(t *testing.T, from, to *fabric.Port, channel uint32, payload int) []byte {
	t.Helper()
	buf := make([]byte, netstack.HeadersLen+HeaderLen+payload)
	encodeHeader(buf[netstack.HeadersLen:], header{kind: kindData, channel: channel})
	n, err := netstack.EncodeUDP(buf, netstack.FrameMeta{
		SrcMAC: from.MAC(), DstMAC: to.MAC(),
		Src: netstack.Endpoint{IP: from.IP(), Port: TechPort(model.TechDPDK)},
		Dst: netstack.Endpoint{IP: to.IP(), Port: TechPort(model.TechDPDK)},
	}, HeaderLen+payload, netstack.JumboMTU)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// waitFree waits until every pool class of rt is back at want.
func waitFree(t *testing.T, rt *Runtime, want string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for fmt.Sprint(rt.mm.FreeSlots()) != want {
		if time.Now().After(deadline) {
			t.Fatalf("free slots = %v, want %s", rt.mm.FreeSlots(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStalledReceiverPinsBoundedSlots floods a node whose DPDK poller is
// stopped. The frames sit in receive slots instead of on the heap, so the
// stall can pin at most min(RX queue depth, free slots) of the node's pool
// (DESIGN.md, "Remote path") — here the whole of a deliberately small one:
// local borrows fail, every further frame is counted as an rx-alloc drop
// and takes nothing, and when the poller resumes each queued frame is
// dispatched (no sink: counted, released) and the pool is whole again.
func TestStalledReceiverPinsBoundedSlots(t *testing.T) {
	const slots, flood = 256, 1000
	caps := datapath.Caps{DPDK: true}
	w := buildWorld(t, caps, caps, func(c *Config) {
		c.Mem = mempool.Config{Classes: []mempool.ClassConfig{{SlotSize: 2048, Slots: slots}}}
	})
	from, to := w.a.cfg.Ports[model.TechDPDK], w.b.cfg.Ports[model.TechDPDK]
	free := fmt.Sprint(w.b.mm.FreeSlots())
	frame := dataFrame(t, from, to, 77, 64)

	st := w.b.techs[model.TechDPDK]
	st.mu.Lock() // the poller blocks in pollRX: a stalled receiver
	for i := 0; i < flood; i++ {
		if err := from.Transmit(frame, 0, timebase.Breakdown{}); err != nil {
			st.mu.Unlock()
			t.Fatal(err)
		}
	}
	snap, pinnedFree := w.b.MetricsSnapshot(), totalFree(w.b)
	_, _, borrowErr := w.b.mm.Get(64, mempool.NoOwner)
	st.mu.Unlock()

	if got := pinnedFree; got != 0 {
		t.Errorf("%d slots free under the stall, want all %d pinned by queued frames", got, slots)
	}
	if !errors.Is(borrowErr, mempool.ErrExhausted) {
		t.Errorf("local borrow under the stall = %v, want ErrExhausted", borrowErr)
	}
	if snap.RxAllocDrops != flood-slots || snap.FabricDrops != 0 {
		t.Errorf("rx-alloc drops = %d, fabric drops = %d, want %d and 0", snap.RxAllocDrops, snap.FabricDrops, flood-slots)
	}

	waitFree(t, w.b, free)
	if got := w.b.tel.Counter(telemetry.CtrNoSinkDrops); got != slots {
		t.Errorf("no-sink drops = %d, want the %d frames that were queued", got, slots)
	}
	if s := w.b.mm.Stats(); s.Gets != s.Releases {
		t.Errorf("gets = %d, releases = %d after the drain", s.Gets, s.Releases)
	}
}

// TestCloseUnderInboundTraffic closes a runtime while a peer transmits to
// it flat out. Close must not panic the transmitter, must leave every slot
// of the closed runtime's pool free once it has returned, and a peer that
// keeps transmitting afterwards takes nothing from it. Run it under -race.
func TestCloseUnderInboundTraffic(t *testing.T) {
	caps := datapath.Caps{DPDK: true}
	for round := 0; round < 10; round++ {
		w := buildWorld(t, caps, caps, nil)
		from, to := w.a.cfg.Ports[model.TechDPDK], w.b.cfg.Ports[model.TechDPDK]
		free := fmt.Sprint(w.b.mm.FreeSlots())
		frame := dataFrame(t, from, to, 78, 1024)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := from.Transmit(frame, 0, timebase.Breakdown{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		time.Sleep(time.Millisecond)
		if err := w.b.Close(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
		close(stop)
		wg.Wait()

		if got := fmt.Sprint(w.b.mm.FreeSlots()); got != free {
			t.Fatalf("round %d: free slots = %s after Close, want %s", round, got, free)
		}
		gets := w.b.mm.Stats().Gets
		for i := 0; i < 100; i++ {
			if err := from.Transmit(frame, 0, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.b.mm.Stats().Gets; got != gets {
			t.Fatalf("round %d: a closed runtime's pool served %d borrows to a transmitting peer", round, got-gets)
		}
		w.a.Close()
	}
}

// TestClosedRuntimeTakesNothing: a peer that keeps sending to a closed
// runtime fills nothing. More frames than an RX queue holds arrive after
// Close: none is queued, every one is counted as dropped on the port, and
// the closed runtime's pools stay whole.
func TestClosedRuntimeTakesNothing(t *testing.T) {
	const flood = 5000 // more than the 4096 frames a port's RX queue holds
	caps := datapath.Caps{DPDK: true}
	w := buildWorld(t, caps, caps, nil)
	from, to := w.a.cfg.Ports[model.TechDPDK], w.b.cfg.Ports[model.TechDPDK]
	free := fmt.Sprint(w.b.mm.FreeSlots())
	frame := dataFrame(t, from, to, 79, 8192)
	if err := w.b.Close(); err != nil {
		t.Fatal(err)
	}
	dropped := to.Stats().Dropped
	for i := 0; i < flood; i++ {
		if err := from.Transmit(frame, 0, timebase.Breakdown{}); err != nil {
			t.Fatal(err)
		}
	}
	if n, d := to.Queued(), to.Stats().Dropped-dropped; n != 0 || d != flood {
		t.Errorf("closed runtime's port: %d frames queued, %d dropped, want 0 and %d", n, d, flood)
	}
	if got := fmt.Sprint(w.b.mm.FreeSlots()); got != free {
		t.Errorf("free slots = %s after the flood, want %s", got, free)
	}
}

// TestPollersPerPluginOwnRxVectors runs the remote path with two pollers
// on the receiving DPDK endpoint: each fills and processes its own packet
// vector, so every message arrives exactly once and intact, and under
// -race no vector entry is touched by both.
func TestPollersPerPluginOwnRxVectors(t *testing.T) {
	caps := datapath.Caps{DPDK: true}
	w := buildWorld(t, caps, caps, func(c *Config) { c.PollersPerPlugin = 2 })
	pollers := w.b.techs[model.TechDPDK].pollers
	if len(pollers) != 2 || &pollers[0].rxPkts[0] == &pollers[1].rxPkts[0] {
		t.Fatalf("%d pollers on the DPDK endpoint, want 2 with an RX vector each", len(pollers))
	}
	free := fmt.Sprint(w.b.mm.FreeSlots())

	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	stA, _ := connA.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	stB, _ := connB.OpenStream(qos.Options{Datapath: qos.DatapathFast})
	sink, err := stB.CreateSink(5)
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribed(t, w.a, 5, 1)
	src, err := stA.CreateSource(5)
	if err != nil {
		t.Fatal(err)
	}

	const total, size, window = 4000, 1024, 64
	seen := make([]bool, total)
	payload := make([]byte, size)
	consume := func() {
		var m Delivery
		if err := consumeWithin(sink, &m, 2*time.Second); err != nil {
			t.Fatalf("consume: %v", err)
		}
		seq := binary.BigEndian.Uint32(m.Payload)
		if len(m.Payload) != size || seq >= total || seen[seq] {
			t.Fatalf("message seq %d, %d bytes: duplicate, out of range or cut", seq, len(m.Payload))
		}
		for i := 4; i < size; i++ {
			if m.Payload[i] != byte(seq)+byte(i) {
				t.Fatalf("message %d corrupted at byte %d", seq, i)
			}
		}
		seen[seq] = true
		sink.Release(&m)
	}
	for seq := 0; seq < total; seq++ {
		binary.BigEndian.PutUint32(payload, uint32(seq))
		for i := 4; i < size; i++ {
			payload[i] = byte(seq) + byte(i)
		}
		sendOn(t, src, payload)
		if seq >= window {
			consume()
		}
	}
	for i := 0; i < window; i++ {
		consume()
	}
	if s := w.b.Stats(); s.RxMessages != total || s.RingFullDrops != 0 {
		t.Errorf("received %d of %d, %d ring-full drops", s.RxMessages, total, s.RingFullDrops)
	}
	waitFree(t, w.b, free)
}
