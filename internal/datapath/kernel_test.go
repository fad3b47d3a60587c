package datapath

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/model"
)

// packetOf builds an unframed message packet in a fresh buffer.
func packetOf(payload []byte) *Packet {
	buf := make([]byte, Headroom+len(payload))
	copy(buf[Headroom:], payload)
	return &Packet{Buf: buf, Off: Headroom, Len: len(payload)}
}

func TestKernelRoundTrip(t *testing.T) {
	p := newPair(t, model.TechKernelUDP, false)
	msg := []byte("kernel path message")
	if n, err := p.a.Send([]*Packet{packetOf(msg)}, p.epB); err != nil || n != 1 {
		t.Fatalf("Send = %d,%v", n, err)
	}
	got := p.pollOne(t)
	if !bytes.Equal(got.Bytes(), msg) {
		t.Errorf("payload = %q, want %q", got.Bytes(), msg)
	}
	if got.Src != p.epA || got.Dst != p.epB {
		t.Errorf("addressing = %v→%v, want %v→%v", got.Src, got.Dst, p.epA, p.epB)
	}
	// Kernel path must charge µs-scale one-way latency (≈6.3 µs at 64B).
	oneWay := got.Breakdown.Total()
	if oneWay < 5*time.Microsecond || oneWay > 8*time.Microsecond {
		t.Errorf("kernel one-way vtime = %v, want ≈6.3µs", oneWay)
	}
}

// TestEndpointCostsHaveCategories: every component an endpoint charges,
// the blocking socket's rx-wakeup included, names one of the four Fig. 6
// stages; Charge adds a cost with any other category to no stage, so it
// would be lost from the packet's clock.
func TestEndpointCostsHaveCategories(t *testing.T) {
	for _, tech := range []model.Tech{model.TechKernelUDP, model.TechXDP, model.TechDPDK, model.TechRDMA} {
		for _, blocking := range []bool{false, true} {
			e := newPair(t, tech, blocking).b
			for _, path := range [][]model.Component{e.tx, e.rx} {
				for _, c := range path {
					if c.Category < model.CatSend || c.Category > model.CatProcessing {
						t.Errorf("%v blocking=%v: %q has category %d", tech, blocking, c.Name, c.Category)
					}
				}
			}
		}
	}
}

func TestKernelBlockingChargesWakeup(t *testing.T) {
	nb := newPair(t, model.TechKernelUDP, false)
	bl := newPair(t, model.TechKernelUDP, true)
	msg := []byte{1, 2, 3, 4}
	if _, err := nb.a.Send([]*Packet{packetOf(msg)}, nb.epB); err != nil {
		t.Fatal(err)
	}
	if _, err := bl.a.Send([]*Packet{packetOf(msg)}, bl.epB); err != nil {
		t.Fatal(err)
	}
	if err := bl.b.WaitRecv(time.Second); err != nil {
		t.Fatal(err)
	}
	fast := nb.pollOne(t).Breakdown.Total()
	slow := bl.pollOne(t).Breakdown.Total()
	if delta := slow - fast; delta != model.BlockingWakeup() {
		t.Errorf("blocking wakeup delta = %v, want %v", delta, model.BlockingWakeup())
	}
}

func TestKernelRejectsOversizedAndFramed(t *testing.T) {
	p := newPair(t, model.TechKernelUDP, false)
	big := packetOf(make([]byte, p.a.MTU()+1))
	big.Buf = make([]byte, Headroom+p.a.MTU()+1)
	if _, err := p.a.Send([]*Packet{big}, p.epB); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize err = %v, want ErrTooLarge", err)
	}
	fp := packetOf([]byte("x"))
	fp.Framed = true
	if _, err := p.a.Send([]*Packet{fp}, p.epB); err == nil {
		t.Error("framed packet accepted on kernel path")
	}
}
