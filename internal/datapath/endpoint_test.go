package datapath

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// message builds one packet a → b of payload in the form the pair's
// technology takes, failing the test where packet cannot.
func (p *pair) message(t testing.TB, payload []byte) *Packet {
	t.Helper()
	pkt, err := p.packet(payload)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func TestXDPRoundTrip(t *testing.T) {
	p := newPair(t, model.TechXDP, false)
	msg := []byte("xdp umem message")
	p.send(t, msg)
	got := p.pollOne(t)
	_, payload, err := netstack.DecodeUDP(got.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, msg) {
		t.Errorf("payload = %q, want %q", payload, msg)
	}
	// XDP sits between DPDK (~1.7µs) and kernel (~6.3µs) one-way.
	oneWay := got.VTime.Duration()
	if oneWay < 1700*time.Nanosecond || oneWay > 5*time.Microsecond {
		t.Errorf("xdp one-way vtime = %v, want between DPDK and kernel", oneWay)
	}
}

func TestClosedEndpointErrors(t *testing.T) {
	for _, tech := range []model.Tech{model.TechKernelUDP, model.TechDPDK, model.TechXDP, model.TechRDMA} {
		t.Run(tech.String(), func(t *testing.T) {
			p := newPair(t, tech, false)
			if err := p.a.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.a.Send(nil, p.epB); !errors.Is(err, ErrClosed) {
				t.Errorf("Send on closed = %v", err)
			}
			if _, err := p.a.Poll(make([]Packet, 1)); !errors.Is(err, ErrClosed) {
				t.Errorf("Poll on closed = %v", err)
			}
			if err := p.a.WaitRecv(time.Millisecond); !errors.Is(err, ErrClosed) {
				t.Errorf("WaitRecv on closed = %v", err)
			}
		})
	}
}

func TestDemuxDropsForeignPort(t *testing.T) {
	p := newPair(t, model.TechKernelUDP, false)
	wrongDst := netstack.Endpoint{IP: p.epB.IP, Port: 9999}
	if _, err := p.a.Send([]*Packet{packetOf([]byte("x"))}, wrongDst); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if pkts := p.poll(t, 4); len(pkts) != 0 {
		t.Errorf("received %d packets for a foreign port", len(pkts))
	}
	if s := p.b.Stats(); s.Malformed != 1 || s.RNRDrops != 0 {
		t.Errorf("malformed = %d, RNR drops = %d after one demux miss, want 1 and 0", s.Malformed, s.RNRDrops)
	}
}

func TestRegistry(t *testing.T) {
	if _, err := Open(model.Tech(99), Config{}); err == nil {
		t.Error("Open(unknown tech): want error")
	}
	caps := Caps{DPDK: true}
	if !caps.Has(model.TechKernelUDP) || !caps.Has(model.TechDPDK) || caps.Has(model.TechRDMA) {
		t.Error("Caps.Has wrong")
	}
	full := Caps{DPDK: true, XDP: true, RDMA: true}
	if got := len(full.List()); got != 4 {
		t.Errorf("full caps list = %d, want 4", got)
	}
}

func TestTechLatencyOrderingEndToEnd(t *testing.T) {
	oneWay := func(tech model.Tech) time.Duration {
		p := newPair(t, tech, false)
		p.send(t, make([]byte, 64))
		return p.pollOne(t).VTime.Duration()
	}
	rdmaT := oneWay(model.TechRDMA)
	dpdkT := oneWay(model.TechDPDK)
	xdpT := oneWay(model.TechXDP)
	kernT := oneWay(model.TechKernelUDP)
	if !(rdmaT < dpdkT && dpdkT < xdpT && xdpT < kernT) {
		t.Errorf("ordering: rdma=%v dpdk=%v xdp=%v kernel=%v", rdmaT, dpdkT, xdpT, kernT)
	}
}

// TestSendToUnresolvableIP: destinations outside the static ARP table
// must fail cleanly on address-carrying plugins.
func TestSendToUnresolvableIP(t *testing.T) {
	for _, tech := range []model.Tech{model.TechKernelUDP, model.TechRDMA} {
		t.Run(tech.String(), func(t *testing.T) {
			p := newPair(t, tech, false)
			ghost := netstack.Endpoint{IP: netstack.IPv4{203, 0, 113, 9}, Port: 1}
			if _, err := p.a.Send([]*Packet{packetOf([]byte("x"))}, ghost); err == nil {
				t.Error("send to unresolvable IP succeeded")
			}
		})
	}
}

// TestChargesMatchProfile pins, to the nanosecond, what one packet is
// charged between Send and Poll — virtual time and its Fig. 6 split — for
// every technology, a small and a large payload, alone and in a full
// burst. The literals were produced by the four hand-written plugins this
// endpoint replaced; the experiments' 2-15 % tolerances would not notice a
// dropped or doubled 100 ns component, this does.
func TestChargesMatchProfile(t *testing.T) {
	for _, c := range []struct {
		tech           model.Tech
		blocking       bool
		payload, burst int
		// Integer nanoseconds: the packet's VTime, then its Breakdown.
		vtime, send, network, recv, processing time.Duration
	}{
		{model.TechKernelUDP, false, 64, 1, 6292, 600, 460, 3400, 1832},
		{model.TechKernelUDP, false, 64, 32, 6292, 600, 460, 3400, 1832},
		{model.TechKernelUDP, false, 8192, 1, 11104, 600, 1110, 3498, 5896},
		{model.TechKernelUDP, false, 8192, 32, 11104, 600, 1110, 3498, 5896},
		{model.TechKernelUDP, true, 64, 1, 6672, 600, 460, 3780, 1832},
		{model.TechKernelUDP, true, 64, 32, 6672, 600, 460, 3780, 1832},
		{model.TechKernelUDP, true, 8192, 1, 11484, 600, 1110, 3878, 5896},
		{model.TechKernelUDP, true, 8192, 32, 11484, 600, 1110, 3878, 5896},
		{model.TechXDP, false, 64, 1, 2663, 700, 460, 903, 600},
		{model.TechXDP, false, 64, 32, 2333, 525, 460, 748, 600},
		{model.TechXDP, false, 8192, 1, 3785, 700, 1110, 1375, 600},
		{model.TechXDP, false, 8192, 32, 3455, 525, 1110, 1220, 600},
		{model.TechDPDK, false, 64, 1, 1723, 700, 460, 563, 0},
		{model.TechDPDK, false, 64, 32, 996, 264, 460, 272, 0},
		{model.TechDPDK, false, 8192, 1, 2845, 700, 1110, 1035, 0},
		{model.TechDPDK, false, 8192, 32, 2118, 264, 1110, 744, 0},
		{model.TechRDMA, false, 64, 1, 1463, 450, 460, 553, 0},
		{model.TechRDMA, false, 64, 32, 1463, 450, 460, 553, 0},
		{model.TechRDMA, false, 8192, 1, 2585, 450, 1110, 1025, 0},
		{model.TechRDMA, false, 8192, 32, 2585, 450, 1110, 1025, 0},
	} {
		p := newPair(t, c.tech, c.blocking)
		pkts := make([]*Packet, c.burst)
		for i := range pkts {
			pkts[i] = p.message(t, make([]byte, c.payload))
		}
		if n, err := p.a.Send(pkts, p.epB); err != nil || n != c.burst {
			t.Fatalf("%v: Send = %d, %v", c.tech, n, err)
		}
		if c.blocking {
			if err := p.b.WaitRecv(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		got := p.poll(t, c.burst)
		if len(got) != c.burst {
			t.Fatalf("%v: polled %d of a burst of %d", c.tech, len(got), c.burst)
		}
		want := timebase.Breakdown{Send: c.send, Network: c.network, Recv: c.recv, Processing: c.processing}
		for i := range got {
			if got[i].VTime.Duration() != c.vtime || got[i].Breakdown != want {
				t.Errorf("%v blocking=%v %d B, packet %d of %d: vtime %d ns %+v, want %d ns %+v",
					c.tech, c.blocking, c.payload, i, c.burst, got[i].VTime.Duration(), got[i].Breakdown, c.vtime, want)
				break
			}
		}
	}
}

// FuzzEndpointPoll transmits arbitrary bytes at an open endpoint of each
// technology: the decoder a kernel-UDP or RDMA peer reaches, and the
// pass-through a DPDK or XDP peer reaches. Poll must not panic, returns at
// most the one frame, accounts it under exactly one heading, and leaves
// every slot where it belongs.
func FuzzEndpointPoll(f *testing.F) {
	var pairs []*pair
	for _, tech := range []model.Tech{model.TechKernelUDP, model.TechXDP, model.TechDPDK, model.TechRDMA} {
		pairs = append(pairs, newPair(f, tech, false))
	}
	// The committed corpus (testdata/fuzz) holds the shapes that matter —
	// valid, wrong port, truncated, disagreeing length fields, and a valid
	// frame above the 2048 B class that reaches the jumbo one; this seed is
	// the one that stays valid if the pair's addresses ever change. XDP's
	// packets are whole frames, valid on every pair.
	f.Add(pairs[1].message(f, []byte("a valid message")).Bytes())
	f.Fuzz(func(t *testing.T, wire []byte) {
		for _, p := range pairs {
			tech := p.b.tech
			port, before := p.portB.Stats(), p.b.Stats()
			if err := p.portA.Transmit(wire, 0, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
			// A frame larger than the largest slot never reaches the queue.
			queued := p.portB.Stats().RxFrames - port.RxFrames
			var pkts [4]Packet
			n, err := p.b.Poll(pkts[:])
			if err != nil || uint64(n) > queued {
				t.Fatalf("%v: Poll = %d, %v with %d frame(s) queued", tech, n, err, queued)
			}
			after := p.b.Stats()
			malformed, rnr := after.Malformed-before.Malformed, after.RNRDrops-before.RNRDrops
			if after.RxPackets-before.RxPackets != uint64(n) {
				t.Fatalf("%v: Poll returned %d, RxPackets moved by %d", tech, n, after.RxPackets-before.RxPackets)
			}
			meta, payload, decodeErr := netstack.DecodeUDP(wire)
			mine := decodeErr == nil && meta.Dst.Port == p.epB.Port
			switch {
			case p.b.framed:
				// Framed planes hand every frame on untouched; the runtime's
				// packet processing engine is the one that parses it.
				if uint64(n) != queued || malformed+rnr != 0 || (n == 1 && !bytes.Equal(pkts[0].Bytes(), wire)) {
					t.Fatalf("%v: %d queued, %d delivered, %d malformed, %d RNR", tech, queued, n, malformed, rnr)
				}
			case uint64(n)+malformed+rnr != queued || rnr != 0 || (n == 1) != (mine && queued == 1):
				t.Fatalf("%v: %d queued (for this socket: %v), %d delivered, %d malformed, %d RNR", tech, queued, mine, n, malformed, rnr)
			case n == 1 && (!bytes.Equal(pkts[0].Bytes(), payload) || pkts[0].Src != meta.Src || pkts[0].Dst != meta.Dst):
				t.Fatalf("%v: delivered %q from %v to %v, the frame carries %q from %v to %v",
					tech, pkts[0].Bytes(), pkts[0].Src, pkts[0].Dst, payload, meta.Src, meta.Dst)
			}
			for _, pkt := range pkts[:n] {
				if err := p.mmB.Release(pkt.Slot); err != nil {
					t.Fatalf("%v: release of the polled packet: %v", tech, err)
				}
			}
			p.poolsWhole(t, "after the polled frame was released")
		}
	})
}
