package fabric

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// buildFrame builds a minimal valid UDP frame addressed dst←src.
func buildFrame(t *testing.T, src, dst *Port, payload []byte) []byte {
	t.Helper()
	buf := make([]byte, netstack.HeadersLen+len(payload))
	copy(buf[netstack.HeadersLen:], payload)
	meta := netstack.FrameMeta{
		SrcMAC: src.MAC(), DstMAC: dst.MAC(),
		Src: netstack.Endpoint{IP: src.IP(), Port: 1},
		Dst: netstack.Endpoint{IP: dst.IP(), Port: 2},
	}
	n, err := netstack.EncodeUDP(buf, meta, len(payload), netstack.JumboMTU)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// recvNow takes the frame a Transmit that has returned left on the port: the
// fabric delivers on the transmitting goroutine.
func recvNow(p *Port) (Frame, error) {
	if f, ok := p.TryRecv(); ok {
		return f, nil
	}
	return Frame{}, errors.New("no frame queued")
}

// twoHostsDirect wires hosts a and b back to back, each receiving into a
// memory of its own with more slots than the RX queue holds: what a flood
// drops is the full queue's.
func twoHostsDirect(t *testing.T, link LinkParams) (*Network, *Port, *Port) {
	t.Helper()
	return twoHostsOn(t, link, newMem(t, 2*rxQueueDepth))
}

// twoHostsOn is twoHostsDirect with b receiving into mm.
func twoHostsOn(t *testing.T, link LinkParams, mm *mempool.Manager) (*Network, *Port, *Port) {
	t.Helper()
	n := New(1)
	a := addHost(t, n, "a", netstack.IPv4{10, 0, 0, 1}, newMem(t, 2*rxQueueDepth))
	b := addHost(t, n, "b", netstack.IPv4{10, 0, 0, 2}, mm)
	if err := n.ConnectDirect(a, b, link); err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

// addHost adds a host whose port receives into mm.
func addHost(t *testing.T, n *Network, name string, ip netstack.IPv4, mm *mempool.Manager) *Port {
	t.Helper()
	p, err := n.AddHost(name, ip)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetRxMemory(mm); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDirectDelivery(t *testing.T) {
	_, a, b := twoHostsDirect(t, DefaultLink)
	payload := []byte("ping")
	frame := buildFrame(t, a, b, payload)
	if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
		t.Fatal(err)
	}
	f, err := recvNow(b)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := netstack.DecodeUDP(f.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}
}

func TestWireCopyIsolation(t *testing.T) {
	_, a, b := twoHostsDirect(t, DefaultLink)
	frame := buildFrame(t, a, b, []byte("orig"))
	if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
		t.Fatal(err)
	}
	// Mutating the sender's buffer after Transmit must not affect the
	// delivered frame (the wire copies).
	for i := range frame {
		frame[i] = 0
	}
	f, err := recvNow(b)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := netstack.DecodeUDP(f.Data)
	if err != nil {
		t.Fatalf("delivered frame corrupted: %v", err)
	}
	if string(got) != "orig" {
		t.Errorf("payload = %q, want orig", got)
	}
}

func TestVirtualTimeAdvance(t *testing.T) {
	link := LinkParams{Rate: 100 * timebase.Gbps, PropDelay: 450 * time.Nanosecond}
	_, a, b := twoHostsDirect(t, link)
	frame := buildFrame(t, a, b, make([]byte, 958)) // frame 1000B
	start := timebase.Breakdown{Send: 1000}
	if err := a.Transmit(frame, start); err != nil {
		t.Fatal(err)
	}
	f, err := recvNow(b)
	if err != nil {
		t.Fatal(err)
	}
	// serialization: (1000+24)*8 bits / 100e9 = 81.92 ns → 81 ns truncated
	wantWire := link.Rate.Transmission(len(frame)+netstack.WireOverhead) + link.PropDelay
	if got := f.Breakdown.Total() - start.Total(); got != wantWire {
		t.Errorf("wire time = %v, want %v", got, wantWire)
	}
	if f.Breakdown.Network != wantWire {
		t.Errorf("breakdown network = %v, want %v", f.Breakdown.Network, wantWire)
	}
}

func TestSwitchForwardingAndLatency(t *testing.T) {
	n := New(1)
	a := addHost(t, n, "a", netstack.IPv4{10, 0, 0, 1}, newMem(t, 8))
	b := addHost(t, n, "b", netstack.IPv4{10, 0, 0, 2}, newMem(t, 8))
	c := addHost(t, n, "c", netstack.IPv4{10, 0, 0, 3}, newMem(t, 8))
	sw := n.AddSwitch("tor", SwitchParams{Latency: 1700 * time.Nanosecond})
	link := LinkParams{Rate: 100 * timebase.Gbps, PropDelay: 100 * time.Nanosecond}
	for _, p := range []*Port{a, b, c} {
		if err := n.ConnectToSwitch(p, sw, link); err != nil {
			t.Fatal(err)
		}
	}
	frame := buildFrame(t, a, b, []byte("x"))
	if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
		t.Fatal(err)
	}
	f, err := recvNow(b)
	if err != nil {
		t.Fatal(err)
	}
	wantWire := link.Rate.Transmission(len(frame)+netstack.WireOverhead) + link.PropDelay + 1700*time.Nanosecond
	if got := f.Breakdown.Total(); got != wantWire {
		t.Errorf("switched wire time = %v, want %v", got, wantWire)
	}
	// c must not receive the unicast frame.
	if _, ok := c.TryRecv(); ok {
		t.Error("unicast frame flooded to third port")
	}
}

func TestSwitchBroadcast(t *testing.T) {
	n := New(1)
	a := addHost(t, n, "a", netstack.IPv4{10, 0, 0, 1}, newMem(t, 8))
	b := addHost(t, n, "b", netstack.IPv4{10, 0, 0, 2}, newMem(t, 8))
	c := addHost(t, n, "c", netstack.IPv4{10, 0, 0, 3}, newMem(t, 8))
	sw := n.AddSwitch("tor", SwitchParams{})
	for _, p := range []*Port{a, b, c} {
		if err := n.ConnectToSwitch(p, sw, LinkParams{}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, netstack.HeadersLen+1)
	meta := netstack.FrameMeta{
		SrcMAC: a.MAC(), DstMAC: netstack.BroadcastMAC,
		Src: netstack.Endpoint{IP: a.IP(), Port: 1},
		Dst: netstack.Endpoint{IP: netstack.IPv4{255, 255, 255, 255}, Port: 2},
	}
	fl, err := netstack.EncodeUDP(buf, meta, 1, netstack.JumboMTU)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Transmit(buf[:fl], timebase.Breakdown{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Port{b, c} {
		if _, err := recvNow(p); err != nil {
			t.Errorf("broadcast not delivered to %s: %v", p.MAC(), err)
		}
	}
	// Sender must not hear its own broadcast.
	if _, ok := a.TryRecv(); ok {
		t.Error("broadcast echoed to sender")
	}
}

func TestLossInjectionDeterministic(t *testing.T) {
	link := DefaultLink
	link.LossRate = 0.5
	_, a, b := twoHostsDirect(t, link)
	const total = 1000
	for i := 0; i < total; i++ {
		frame := buildFrame(t, a, b, []byte{byte(i)})
		if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Dropped == 0 || st.Dropped == total {
		t.Errorf("dropped = %d, want 0 < d < %d", st.Dropped, total)
	}
	got := 0
	for {
		if _, ok := b.TryRecv(); !ok {
			break
		}
		got++
	}
	if uint64(got)+st.Dropped != total {
		t.Errorf("received %d + dropped %d != %d", got, st.Dropped, total)
	}
	// Rough sanity: loss near 50%.
	if st.Dropped < total/4 || st.Dropped > 3*total/4 {
		t.Errorf("loss %d far from 50%% of %d", st.Dropped, total)
	}
}

func TestRxQueueOverflowDrops(t *testing.T) {
	_, a, b := twoHostsDirect(t, DefaultLink)
	frame := buildFrame(t, a, b, []byte("x"))
	for i := 0; i < rxQueueDepth+100; i++ {
		if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Stats().Dropped; got != 100 {
		t.Errorf("dropped = %d, want 100", got)
	}
	if got := b.Stats().RxFrames; got != rxQueueDepth {
		t.Errorf("rx frames = %d, want %d", got, rxQueueDepth)
	}
}

func TestPortLifecycleErrors(t *testing.T) {
	n := New(1)
	a, _ := n.AddHost("a", netstack.IPv4{10, 0, 0, 1})
	if err := a.Transmit([]byte("x"), timebase.Breakdown{}); !errors.Is(err, ErrNotAttached) {
		t.Errorf("unattached transmit err = %v", err)
	}
	b, _ := n.AddHost("b", netstack.IPv4{10, 0, 0, 2})
	if err := n.ConnectDirect(a, b, DefaultLink); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectDirect(a, b, DefaultLink); err == nil {
		t.Error("double connect: want error")
	}
	// A port with no receive memory drops what arrives and takes nothing.
	if err := a.Transmit(buildFrame(t, a, b, []byte("x")), timebase.Breakdown{}); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Dropped != 1 || s.RxFrames != 0 || b.Queued() != 0 {
		t.Errorf("stats = %+v, queued = %d, want one drop and nothing queued", s, b.Queued())
	}
	// Memory is registered once.
	if err := b.SetRxMemory(nil); err == nil {
		t.Error("registering no memory: want error")
	}
	if err := b.SetRxMemory(newMem(t, 8)); err != nil {
		t.Fatal(err)
	}
	if err := b.SetRxMemory(newMem(t, 8)); err == nil {
		t.Error("second registration: want error")
	}
	if _, err := n.AddHost("a", netstack.IPv4{10, 0, 0, 9}); err == nil {
		t.Error("duplicate host: want error")
	}
	a.Close()
	if err := a.Transmit([]byte("x"), timebase.Breakdown{}); !errors.Is(err, ErrPortClosed) {
		t.Errorf("closed transmit err = %v", err)
	}
	if err := make(Bell, 1).Wait(a, time.Millisecond); !errors.Is(err, ErrPortClosed) {
		t.Errorf("closed wait err = %v", err)
	}
	a.Close() // idempotent
}

// TestRecvTimeout: a receiver asleep on the port's doorbell wakes with the
// frame that arrives and not on a ring left over from one already taken,
// gives up at its timeout, and takes nothing — the frame is TryRecv's.
func TestRecvTimeout(t *testing.T) {
	_, a, b := twoHostsDirect(t, DefaultLink)
	bell := make(Bell, 1)
	b.SetRxDoorbell(bell)
	frame := buildFrame(t, a, b, []byte("x"))
	if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
		t.Fatal(err)
	}
	if _, err := recvNow(b); err != nil { // taken without a wait: its ring stays set
		t.Fatal(err)
	}
	start := time.Now()
	if err := bell.Wait(b, 10*time.Millisecond); err == nil {
		t.Error("want timeout error on an empty port with a stale ring")
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("Wait returned before timeout")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
			t.Error(err)
		}
	}()
	if err := bell.Wait(b, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := recvNow(b); err != nil {
		t.Errorf("the frame that ended the wait is not on the port: %v", err)
	}
}

func TestResolverPopulated(t *testing.T) {
	n, a, b := twoHostsDirect(t, DefaultLink)
	mac, err := n.Resolver().Resolve(b.IP())
	if err != nil || mac != b.MAC() {
		t.Errorf("Resolve(b) = %v,%v", mac, err)
	}
	mac, err = n.Resolver().Resolve(a.IP())
	if err != nil || mac != a.MAC() {
		t.Errorf("Resolve(a) = %v,%v", mac, err)
	}
}

func TestBreakdownAccumulation(t *testing.T) {
	b := timebase.Breakdown{Send: 11, Network: 22, Recv: 33, Processing: 44}
	if b.Total() != 110 {
		t.Errorf("total = %v, want 110", b.Total())
	}
}

func TestJitterSpreadsWireLatency(t *testing.T) {
	link := DefaultLink
	link.Jitter = 200 * time.Nanosecond
	_, a, b := twoHostsDirect(t, link)
	frame := buildFrame(t, a, b, []byte("j"))
	seen := map[time.Duration]bool{}
	var minW, maxW time.Duration
	for i := 0; i < 200; i++ {
		if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
			t.Fatal(err)
		}
		f, err := recvNow(b)
		if err != nil {
			t.Fatal(err)
		}
		w := f.Breakdown.Network
		seen[w] = true
		if minW == 0 || w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if len(seen) < 10 {
		t.Errorf("jitter produced only %d distinct wire times", len(seen))
	}
	// Spread bounded by ±Jitter around the nominal value.
	if maxW-minW > 2*link.Jitter {
		t.Errorf("spread %v exceeds 2x jitter", maxW-minW)
	}
	nominal := link.Rate.Transmission(len(frame)+netstack.WireOverhead) + link.PropDelay
	if minW < nominal-link.Jitter || maxW > nominal+link.Jitter {
		t.Errorf("wire time range [%v,%v] outside nominal %v ± %v", minW, maxW, nominal, link.Jitter)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	sample := func() []time.Duration {
		link := DefaultLink
		link.Jitter = 150 * time.Nanosecond
		_, a, b := twoHostsDirect(t, link)
		frame := buildFrame(t, a, b, []byte("d"))
		var out []time.Duration
		for i := 0; i < 20; i++ {
			if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
			f, err := recvNow(b)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f.Breakdown.Network)
		}
		return out
	}
	s1, s2 := sample(), sample()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed produced different jitter at %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}

func TestSwitchUnknownUnicastDropped(t *testing.T) {
	n := New(1)
	a := addHost(t, n, "a", netstack.IPv4{10, 0, 0, 1}, newMem(t, 8))
	b := addHost(t, n, "b", netstack.IPv4{10, 0, 0, 2}, newMem(t, 8))
	sw := n.AddSwitch("tor", SwitchParams{})
	for _, p := range []*Port{a, b} {
		if err := n.ConnectToSwitch(p, sw, LinkParams{}); err != nil {
			t.Fatal(err)
		}
	}
	// Frame to a MAC the switch never learned.
	buf := make([]byte, netstack.HeadersLen+1)
	meta := netstack.FrameMeta{
		SrcMAC: a.MAC(), DstMAC: netstack.MAC{0x02, 9, 9, 9, 9, 9},
		Src: netstack.Endpoint{IP: a.IP(), Port: 1},
		Dst: netstack.Endpoint{IP: netstack.IPv4{10, 0, 0, 99}, Port: 2},
	}
	fl, err := netstack.EncodeUDP(buf, meta, 1, netstack.JumboMTU)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Transmit(buf[:fl], timebase.Breakdown{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.TryRecv(); ok {
		t.Error("unknown unicast leaked to another port")
	}
	if a.Stats().Dropped != 1 {
		t.Errorf("dropped = %d, want 1 (counted against sender)", a.Stats().Dropped)
	}
}

// countingBell counts rings.
type countingBell struct{ rings int }

func (c *countingBell) Ring() { c.rings++ }

// TestRxDoorbell pins the doorbell contract the runtime's idle policy
// rests on: exactly one ring per frame the port queued, none for a frame
// that never reached the queue, none once disarmed.
func TestRxDoorbell(t *testing.T) {
	lossy := DefaultLink
	lossy.LossRate = 0.5

	t.Run("one ring per queued frame", func(t *testing.T) {
		_, a, b := twoHostsDirect(t, DefaultLink)
		var bell countingBell
		b.SetRxDoorbell(&bell)
		frame := buildFrame(t, a, b, []byte("x"))
		for i := 0; i < 10; i++ {
			if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
		}
		if bell.rings != 10 || b.Stats().RxFrames != 10 {
			t.Errorf("rings = %d, rx frames = %d, want 10 and 10", bell.rings, b.Stats().RxFrames)
		}
	})
	t.Run("no ring on a full RX queue", func(t *testing.T) {
		_, a, b := twoHostsDirect(t, DefaultLink)
		var bell countingBell
		b.SetRxDoorbell(&bell)
		frame := buildFrame(t, a, b, []byte("x"))
		for i := 0; i < rxQueueDepth+100; i++ {
			if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
		}
		if bell.rings != rxQueueDepth || b.Stats().Dropped != 100 {
			t.Errorf("rings = %d, dropped = %d, want %d and 100", bell.rings, b.Stats().Dropped, rxQueueDepth)
		}
	})
	t.Run("no ring on injected loss", func(t *testing.T) {
		_, a, b := twoHostsDirect(t, lossy)
		var bell countingBell
		b.SetRxDoorbell(&bell)
		frame := buildFrame(t, a, b, []byte("x"))
		const total = 1000
		for i := 0; i < total; i++ {
			if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
		}
		lost := a.Stats().Dropped
		if lost == 0 || uint64(bell.rings)+lost != total || uint64(bell.rings) != b.Stats().RxFrames {
			t.Errorf("rings = %d, lost = %d, rx frames = %d of %d sent", bell.rings, lost, b.Stats().RxFrames, total)
		}
	})
	t.Run("no ring on a closed port", func(t *testing.T) {
		_, a, b := twoHostsDirect(t, DefaultLink)
		var bell countingBell
		b.SetRxDoorbell(&bell)
		b.Close()
		if err := a.Transmit(buildFrame(t, a, b, []byte("x")), timebase.Breakdown{}); err != nil {
			t.Fatal(err)
		}
		if bell.rings != 0 || b.Stats().Dropped != 1 {
			t.Errorf("rings = %d, dropped = %d, want 0 and 1", bell.rings, b.Stats().Dropped)
		}
	})
	t.Run("no ring once disarmed", func(t *testing.T) {
		_, a, b := twoHostsDirect(t, DefaultLink)
		var bell countingBell
		b.SetRxDoorbell(&bell)
		b.SetRxDoorbell(nil)
		if err := a.Transmit(buildFrame(t, a, b, []byte("x")), timebase.Breakdown{}); err != nil {
			t.Fatal(err)
		}
		if bell.rings != 0 || b.Stats().RxFrames != 1 {
			t.Errorf("rings = %d, rx frames = %d, want 0 and 1", bell.rings, b.Stats().RxFrames)
		}
	})
}
