package datapath

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// pairPools are each pair host's pool classes: room for a full RDMA
// receive queue and then some, and for a burst of jumbo frames.
var pairPools = mempool.Config{Classes: []mempool.ClassConfig{
	{SlotSize: 2048, Slots: 2 * DefaultRecvDepth},
	{SlotSize: 9216, Slots: 64},
}}

// pair is two hosts on a direct link with one endpoint of tech each; b is
// the side the tests wait and poll on.
type pair struct {
	a, b         *Endpoint
	epA, epB     netstack.Endpoint
	portA, portB *fabric.Port
	mmA, mmB     *mempool.Manager
}

func newPair(t testing.TB, tech model.Tech, blocking bool) *pair {
	t.Helper()
	net := fabric.New(7)
	p := &pair{
		epA: netstack.Endpoint{IP: netstack.IPv4{10, 0, 0, 1}, Port: 7000},
		epB: netstack.Endpoint{IP: netstack.IPv4{10, 0, 0, 2}, Port: 7000},
	}
	open := func(name string, local netstack.Endpoint) (*Endpoint, *fabric.Port, *mempool.Manager) {
		port, err := net.AddHost(name, local.IP)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := mempool.NewManager(pairPools)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := Open(tech, Config{Port: port, Resolver: net.Resolver(), Local: local, Mem: mm, Testbed: model.Local, Blocking: blocking})
		if err != nil {
			t.Fatal(err)
		}
		return ep, port, mm
	}
	p.a, p.portA, p.mmA = open("a", p.epA)
	p.b, p.portB, p.mmB = open("b", p.epB)
	if err := net.ConnectDirect(p.portA, p.portB, fabric.DefaultLink); err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out, so this one runs after every release
	// a test registers: with both endpoints closed, whatever a port still
	// queued is back too.
	t.Cleanup(func() {
		p.a.Close()
		p.b.Close()
		p.poolsWhole(t, "after the endpoints closed")
	})
	return p
}

// poolsWhole checks that every slot of every class of both hosts is back
// in its pool.
func (p *pair) poolsWhole(t testing.TB, when string) {
	t.Helper()
	for i, mm := range []*mempool.Manager{p.mmA, p.mmB} {
		for class, free := range mm.FreeSlots() {
			if want := mm.Classes()[class].Slots; free != want {
				t.Errorf("host %c: %d of %d slots of class %d free %s", 'a'+i, free, want, class, when)
			}
		}
	}
}

// poll polls b once for up to max packets. The packets' slots are released
// when the test ends, before the pair's pools are checked.
func (p *pair) poll(t *testing.T, max int) []Packet {
	t.Helper()
	pkts := make([]Packet, max)
	n, err := p.b.Poll(pkts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts[:n] {
		slot := pkts[i].Slot
		t.Cleanup(func() {
			if err := p.mmB.Release(slot); err != nil {
				t.Errorf("release of a polled packet: %v", err)
			}
		})
	}
	return pkts[:n]
}

// pollOne polls b until it returns a packet, or fails the test after 2 s.
// The packet's slot is released as poll's are.
func (p *pair) pollOne(t *testing.T) *Packet {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if pkts := p.poll(t, 1); len(pkts) == 1 {
			return &pkts[0]
		}
	}
	t.Fatal("no packet received before deadline")
	return nil
}

// send transmits one message a → b.
func (p *pair) send(t *testing.T, msg []byte) {
	t.Helper()
	if err := p.trySend(msg); err != nil {
		t.Fatal(err)
	}
}

func (p *pair) trySend(msg []byte) error {
	pkt, err := p.packet(msg)
	if err != nil {
		return err
	}
	_, err = p.a.Send([]*Packet{pkt}, p.epB)
	return err
}

// packet builds a message a → b in the form the technology takes: a frame
// built by the caller where the packet processing engine would, the bare
// message elsewhere.
func (p *pair) packet(msg []byte) (*Packet, error) {
	pkt := &Packet{Buf: make([]byte, Headroom+len(msg)), Off: Headroom, Len: len(msg)}
	copy(pkt.Buf[Headroom:], msg)
	if p.a.framed {
		n, err := netstack.EncodeUDP(pkt.Buf, netstack.FrameMeta{
			SrcMAC: p.a.cfg.Port.MAC(), DstMAC: p.portB.MAC(), Src: p.epA, Dst: p.epB,
		}, len(msg), netstack.JumboMTU)
		if err != nil {
			return nil, err
		}
		pkt.Off, pkt.Len, pkt.Framed = 0, n, true
	}
	return pkt, nil
}

// pollB polls b once and returns the payloads it got, releasing the slots.
func (p *pair) pollB(t *testing.T) [][]byte {
	t.Helper()
	var pkts [4]Packet
	n, err := p.b.Poll(pkts[:])
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for i := range pkts[:n] {
		payload := pkts[i].Bytes()
		if pkts[i].Framed {
			if _, payload, err = netstack.DecodeUDP(payload); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, append([]byte(nil), payload...))
		if err := p.mmB.Release(pkts[i].Slot); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestXDPBlockingWaitRecv exercises AF_XDP's poll(2)-style blocking wait:
// it returns once a frame is there and takes nothing — the frame is still
// on the port's queue, and the next Poll is what receives it.
func TestXDPBlockingWaitRecv(t *testing.T) {
	p := newPair(t, model.TechXDP, true)
	msg := []byte("xdp blocking")
	p.send(t, msg)
	if err := p.b.WaitRecv(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := p.portB.Stats().RxFrames; n != 1 || p.b.Stats().RxPackets != 0 {
		t.Errorf("%d frames queued and %d taken by the wait, want 1 and 0", n, p.b.Stats().RxPackets)
	}
	if got := p.pollB(t); len(got) != 1 || !bytes.Equal(got[0], msg) {
		t.Errorf("polled %q after the blocking wait, want %q", got, msg)
	}
}

// TestNonBlockingWaitRecvIsNoop: with Blocking unset — or on a technology
// that only spins — WaitRecv returns at once, frame or no frame, and
// consumes nothing.
func TestNonBlockingWaitRecvIsNoop(t *testing.T) {
	for _, tc := range []struct {
		tech     model.Tech
		blocking bool
	}{{model.TechKernelUDP, false}, {model.TechDPDK, true}} {
		p := newPair(t, tc.tech, tc.blocking)
		start := time.Now()
		if err := p.b.WaitRecv(time.Second); err != nil || time.Since(start) > 500*time.Millisecond {
			t.Errorf("%v: WaitRecv on an empty port = %v after %v, want nil at once", tc.tech, err, time.Since(start))
		}
		p.send(t, []byte("x"))
		if err := p.b.WaitRecv(time.Second); err != nil {
			t.Fatal(err)
		}
		if got := p.pollB(t); len(got) != 1 || string(got[0]) != "x" {
			t.Errorf("%v: polled %q, want one \"x\"", tc.tech, got)
		}
	}
}

// TestWaitRecvSleepsOnTheDoorbell: a blocking wait on an empty port ends
// with the frame that arrives, not before; a ring left over from a frame an
// earlier Poll already took does not end it; without a frame it ends in the
// timeout; and a closed endpoint refuses to wait.
func TestWaitRecvSleepsOnTheDoorbell(t *testing.T) {
	p := newPair(t, model.TechKernelUDP, true)

	// A stale ring: the frame is polled without a wait, its ring stays set.
	p.send(t, []byte("early"))
	if got := p.pollB(t); len(got) != 1 {
		t.Fatalf("polled %d packets, want 1", len(got))
	}
	start := time.Now()
	if err := p.b.WaitRecv(20 * time.Millisecond); err == nil {
		t.Error("WaitRecv on an empty port returned nil on a stale ring")
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("WaitRecv timed out after %v, want the whole 20ms", waited)
	}

	// A frame that arrives during the wait ends it, with no deadline armed.
	go func() {
		time.Sleep(10 * time.Millisecond)
		if err := p.trySend([]byte("late")); err != nil {
			t.Error(err)
		}
	}()
	if err := p.b.WaitRecv(0); err != nil {
		t.Fatal(err)
	}
	if got := p.pollB(t); len(got) != 1 || string(got[0]) != "late" {
		t.Errorf("polled %q after the wait, want \"late\"", got)
	}

	p.b.Close()
	if err := p.b.WaitRecv(time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Errorf("WaitRecv on a closed endpoint = %v, want ErrClosed", err)
	}
}
