package datapath

import (
	"bytes"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// TestDPDKRoundTripFramed: a DPDK endpoint takes and delivers whole frames,
// and the received packet's clock is the sent one plus the charged path —
// TX, wire and RX, the nanoseconds TestChargesMatchProfile pins for a 64 B
// payload alone. Between Transmit and Poll that clock rides in the
// receiving slot's header.
func TestDPDKRoundTripFramed(t *testing.T) {
	p := newPair(t, model.TechDPDK, false)
	msg := make([]byte, 64)
	copy(msg, "dpdk burst message")
	pkt, err := p.packet(msg)
	if err != nil {
		t.Fatal(err)
	}
	sentVT := timebase.VTime(5 * time.Microsecond)
	sentBD := timebase.Breakdown{Send: time.Microsecond, Processing: 4 * time.Microsecond}
	pkt.VTime, pkt.Breakdown = sentVT, sentBD
	if n, err := p.a.Send([]*Packet{pkt}, p.epB); err != nil || n != 1 {
		t.Fatalf("Send = %d,%v", n, err)
	}
	got := p.pollOne(t)
	if !got.Framed {
		t.Fatal("DPDK must deliver framed packets")
	}
	meta, payload, err := netstack.DecodeUDP(got.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, msg) {
		t.Errorf("payload = %q, want %q", payload, msg)
	}
	if meta.Src != p.epA || meta.Dst != p.epB {
		t.Errorf("addressing = %v→%v", meta.Src, meta.Dst)
	}
	wantBD := sentBD
	wantBD.Send += 700
	wantBD.Network += 460
	wantBD.Recv += 563
	if got.VTime != sentVT.Add(1723) || got.Breakdown != wantBD {
		t.Errorf("clock = %v %+v, want %v %+v", got.VTime, got.Breakdown, sentVT.Add(1723), wantBD)
	}
	if p.b.Stats().RxPackets != 1 || p.a.Stats().TxPackets != 1 {
		t.Error("stats not counted")
	}
}

func TestDPDKRejectsUnframed(t *testing.T) {
	p := newPair(t, model.TechDPDK, false)
	if _, err := p.a.Send([]*Packet{packetOf([]byte("x"))}, p.epB); err == nil {
		t.Error("unframed packet accepted on DPDK path")
	}
}

// TestDPDKBurstAmortizesDoorbell: a packet sent in a burst of 16 is charged
// less than one sent alone.
func TestDPDKBurstAmortizesDoorbell(t *testing.T) {
	single := newPair(t, model.TechDPDK, false)
	burst := newPair(t, model.TechDPDK, false)
	msg := make([]byte, 64)

	single.send(t, msg)
	soloVT := single.pollOne(t).VTime

	pkts := make([]*Packet, 16)
	for i := range pkts {
		pkt, err := burst.packet(msg)
		if err != nil {
			t.Fatal(err)
		}
		pkts[i] = pkt
	}
	if n, err := burst.a.Send(pkts, burst.epB); err != nil || n != 16 {
		t.Fatalf("burst send = %d,%v", n, err)
	}
	// Drain the whole burst; per-packet charged time must be lower than
	// the single-packet case thanks to doorbell amortization.
	var got [16]Packet
	n := 0
	deadline := time.Now().Add(2 * time.Second)
	for n < len(got) && time.Now().Before(deadline) {
		m, err := burst.b.Poll(got[n:])
		if err != nil {
			t.Fatal(err)
		}
		n += m
	}
	for i := range got[:n] {
		if err := burst.mmB.Release(got[i].Slot); err != nil {
			t.Fatal(err)
		}
	}
	if n != len(got) {
		t.Fatalf("received %d of %d", n, len(got))
	}
	if got[0].VTime >= soloVT {
		t.Errorf("burst packet vtime %v not below single-packet %v", got[0].VTime, soloVT)
	}
}
