package datapath

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

func TestRDMARoundTrip(t *testing.T) {
	p := newPair(t, model.TechRDMA, false)
	msg := []byte("rdma two-sided send")
	p.send(t, msg)
	got := p.pollOne(t)
	if !bytes.Equal(got.Bytes(), msg) {
		t.Errorf("payload = %q, want %q", got.Bytes(), msg)
	}
	// RDMA one-way ≈ 1.46 µs: fastest of all technologies.
	oneWay := got.Breakdown.Total()
	if oneWay < 1200*time.Nanosecond || oneWay > 1800*time.Nanosecond {
		t.Errorf("rdma one-way vtime = %v, want ≈1.46µs", oneWay)
	}
}

// TestRDMARejectsFramed: RDMA implements its transport in the NIC, so a
// frame built by the packet processing engine is refused.
func TestRDMARejectsFramed(t *testing.T) {
	p := newPair(t, model.TechRDMA, false)
	pkt := packetOf([]byte("x"))
	n, err := netstack.EncodeUDP(pkt.Buf, netstack.FrameMeta{
		SrcMAC: p.a.cfg.Port.MAC(), DstMAC: p.portB.MAC(), Src: p.epA, Dst: p.epB,
	}, pkt.Len, netstack.JumboMTU)
	if err != nil {
		t.Fatal(err)
	}
	pkt.Off, pkt.Len, pkt.Framed = 0, n, true
	if _, err := p.a.Send([]*Packet{pkt}, p.epB); !errors.Is(err, errFramed) {
		t.Errorf("framed packet on the RDMA path: err = %v, want %v", err, errFramed)
	}
}

// TestRDMAReceiverNotReady: one completion poll reaps at most the posted
// receive depth and drops the rest receiver-not-ready, releasing their
// slots on the spot: what the pool has lent out is the completions the
// caller holds, in its free count and in its borrow and release figures.
func TestRDMAReceiverNotReady(t *testing.T) {
	const extra = 6
	p := newPair(t, model.TechRDMA, false)
	for i := 0; i < DefaultRecvDepth+extra; i++ {
		p.send(t, []byte{byte(i)})
	}
	pkts := make([]Packet, DefaultRecvDepth+extra)
	n, err := p.b.Poll(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if n != DefaultRecvDepth {
		t.Fatalf("reaped %d completions, want %d (depth)", n, DefaultRecvDepth)
	}
	if s := p.b.Stats(); s.RNRDrops != extra || s.Malformed != 0 {
		t.Errorf("RNR drops = %d, malformed = %d, want %d and 0", s.RNRDrops, s.Malformed, extra)
	}
	if free, want := p.mmB.FreeSlots()[0], pairPools.Classes[0].Slots-n; free != want {
		t.Errorf("%d slots free with %d completions held, want %d", free, n, want)
	}
	if s := p.mmB.Stats(); s.Gets-s.Releases != uint64(n) {
		t.Errorf("mempool gets %d - releases %d = %d, want the %d completions held", s.Gets, s.Releases, s.Gets-s.Releases, n)
	}
	for i := range pkts[:n] {
		if err := p.mmB.Release(pkts[i].Slot); err != nil {
			t.Fatal(err)
		}
	}
	// The buffers were re-posted: the next poll reaps again.
	p.send(t, []byte("again"))
	if got := p.pollB(t); len(got) != 1 || !bytes.Equal(got[0], []byte("again")) {
		t.Errorf("after the re-post, polled %q, want one message \"again\"", got)
	}
}
