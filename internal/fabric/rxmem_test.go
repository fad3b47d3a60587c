package fabric

import (
	"bytes"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// newMem returns a one-class manager of the given slot count.
func newMem(t *testing.T, slots int) *mempool.Manager {
	t.Helper()
	mm, err := mempool.NewManager(mempool.Config{Classes: []mempool.ClassConfig{{SlotSize: 2048, Slots: slots}}})
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

// wantFree fails unless mm has exactly free slots free.
func wantFree(t *testing.T, mm *mempool.Manager, free int) {
	t.Helper()
	if got := mm.FreeSlots()[0]; got != free {
		t.Errorf("free slots = %d, want %d", got, free)
	}
}

// TestRxDescriptorSize pins the RX queue entry at 8 bytes, a slot id and a
// length: every port carries rxQueueDepth of them, and the frame's clock
// is in the slot's header.
func TestRxDescriptorSize(t *testing.T) {
	if size := unsafe.Sizeof(rxDesc{}); size > 8 {
		t.Errorf("rxDesc is %d bytes, want <= 8", size)
	}
}

// TestReceiveIntoRegisteredMemory: the wire copy of a frame lands at
// offset 0 of a slot of the receiving port's memory, the receiver owns
// that slot, and nothing is taken from the sender's side.
func TestReceiveIntoRegisteredMemory(t *testing.T) {
	mm := newMem(t, 8)
	_, a, b := twoHostsOn(t, DefaultLink, mm)
	frame := buildFrame(t, a, b, []byte("registered"))
	if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
		t.Fatal(err)
	}
	wantFree(t, mm, 7)
	f, ok := b.TryRecv()
	if !ok {
		t.Fatal("no frame queued")
	}
	if f.Slot == mempool.NoSlot || !bytes.Equal(f.Data, frame) || cap(f.Data) != 2048 {
		t.Fatalf("frame = slot %v, %d bytes (cap %d), want a slot holding the %d frame bytes (cap 2048)", f.Slot, len(f.Data), cap(f.Data), len(frame))
	}
	buf, err := mm.Buf(f.Slot, mempool.NoOwner)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != &f.Data[0] {
		t.Error("frame data does not start at offset 0 of its slot")
	}
	if err := mm.Release(f.Slot); err != nil {
		t.Fatal(err)
	}
	wantFree(t, mm, 8)
	if s := mm.Stats(); s.Gets != 1 || s.Releases != 1 {
		t.Errorf("gets = %d, releases = %d, want one slot per frame", s.Gets, s.Releases)
	}
}

// TestClockCrossesThePort: a frame's virtual clock and Fig. 6 split arrive
// through Transmit and TryRecv as they were sent, plus the wire, riding in
// the receiving slot's header. Three frames queue before any is taken, so
// each descriptor must lead back to its own clock.
func TestClockCrossesThePort(t *testing.T) {
	const prop = 700 * time.Nanosecond
	mm := newMem(t, 8)
	_, a, b := twoHostsOn(t, LinkParams{PropDelay: prop}, mm)
	frame := buildFrame(t, a, b, []byte("clock"))
	sent := func(i int) timebase.Breakdown {
		d := time.Duration(i+1) * time.Microsecond
		return timebase.Breakdown{Send: d, Network: 2 * d, Recv: 3 * d, Processing: 4 * d}
	}
	for i := 0; i < 3; i++ {
		if err := a.Transmit(frame, sent(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		f, ok := b.TryRecv()
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		bd := sent(i)
		bd.Network += prop
		if f.Breakdown != bd {
			t.Errorf("frame %d: clock %+v, want %+v", i, f.Breakdown, bd)
		}
		if h := mm.Header(f.Slot); h.Breakdown != f.Breakdown {
			t.Errorf("frame %d: slot header %+v, want the frame's clock", i, *h)
		}
		if err := mm.Release(f.Slot); err != nil {
			t.Fatal(err)
		}
	}
	wantFree(t, mm, 8)
}

// TestRxSlotConservation drives every arm on which deliver, or the queue it
// feeds, gives up a frame: each must count the drop where it belongs and
// give the slot back.
func TestRxSlotConservation(t *testing.T) {
	t.Run("rx queue full", func(t *testing.T) {
		mm := newMem(t, rxQueueDepth+200)
		_, a, b := twoHostsOn(t, DefaultLink, mm)
		frame := buildFrame(t, a, b, []byte("x"))
		for i := 0; i < rxQueueDepth+100; i++ {
			if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
		}
		if s := b.Stats(); s.Dropped != 100 || s.RxNoMem != 0 || s.RxFrames != rxQueueDepth {
			t.Errorf("stats = %+v, want 100 dropped on the full queue, none for lack of memory", s)
		}
		wantFree(t, mm, 200)
		b.Close()
		wantFree(t, mm, rxQueueDepth+200)
	})
	t.Run("pool exhausted", func(t *testing.T) {
		mm := newMem(t, 8)
		_, a, b := twoHostsOn(t, DefaultLink, mm)
		var bell countingBell
		b.SetRxDoorbell(&bell)
		frame := buildFrame(t, a, b, []byte("x"))
		for i := 0; i < 20; i++ {
			if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
		}
		if s := b.Stats(); s.RxNoMem != 12 || s.Dropped != 0 || s.RxFrames != 8 || bell.rings != 8 {
			t.Errorf("stats = %+v, rings = %d, want 8 received and rung, 12 dropped for lack of memory only", s, bell.rings)
		}
		for i := 0; i < 8; i++ {
			f, ok := b.TryRecv()
			if !ok {
				t.Fatalf("frame %d missing", i)
			}
			if err := mm.Release(f.Slot); err != nil {
				t.Fatal(err)
			}
		}
		wantFree(t, mm, 8)
	})
	t.Run("port closed with frames queued", func(t *testing.T) {
		mm := newMem(t, 8)
		_, a, b := twoHostsOn(t, DefaultLink, mm)
		frame := buildFrame(t, a, b, []byte("x"))
		for i := 0; i < 5; i++ {
			if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
		}
		wantFree(t, mm, 3)
		b.Close()
		wantFree(t, mm, 8)
		// A peer that keeps transmitting takes nothing from the closed side.
		for i := 0; i < 5; i++ {
			if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
				t.Fatal(err)
			}
		}
		wantFree(t, mm, 8)
		if s, gets := b.Stats(), mm.Stats().Gets; s.Dropped != 10 || gets != 5 {
			t.Errorf("dropped = %d, slots ever taken = %d, want 10 (5 queued + 5 refused) and 5", s.Dropped, gets)
		}
		if _, ok := b.TryRecv(); ok {
			t.Error("closed port still hands out a frame")
		}
	})
	t.Run("switch broadcast takes one slot per destination port", func(t *testing.T) {
		n := New(1)
		sw := n.AddSwitch("tor", SwitchParams{})
		var ports [3]*Port
		var mems [3]*mempool.Manager
		for i := range ports {
			p, err := n.AddHost(string(rune('a'+i)), netstack.IPv4{10, 0, 0, byte(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.ConnectToSwitch(p, sw, LinkParams{}); err != nil {
				t.Fatal(err)
			}
			mems[i] = newMem(t, 4)
			if err := p.SetRxMemory(mems[i]); err != nil {
				t.Fatal(err)
			}
			ports[i] = p
		}
		buf := make([]byte, netstack.HeadersLen+1)
		fl, err := netstack.EncodeUDP(buf, netstack.FrameMeta{
			SrcMAC: ports[0].MAC(), DstMAC: netstack.BroadcastMAC,
			Src: netstack.Endpoint{IP: ports[0].IP(), Port: 1},
			Dst: netstack.Endpoint{IP: netstack.IPv4{255, 255, 255, 255}, Port: 2},
		}, 1, netstack.JumboMTU)
		if err != nil {
			t.Fatal(err)
		}
		if err := ports[0].Transmit(buf[:fl], timebase.Breakdown{}); err != nil {
			t.Fatal(err)
		}
		wantFree(t, mems[0], 4) // the sender hears nothing
		for i := 1; i < 3; i++ {
			wantFree(t, mems[i], 3)
			f, ok := ports[i].TryRecv()
			if !ok || !bytes.Equal(f.Data, buf[:fl]) {
				t.Fatalf("port %d: broadcast frame = %v, %v", i, f.Data, ok)
			}
			own, err := mems[i].Buf(f.Slot, mempool.NoOwner)
			if err != nil || &own[0] != &f.Data[0] {
				t.Errorf("port %d: broadcast frame does not sit in a slot of its own memory (%v)", i, err)
			}
			if err := mems[i].Release(f.Slot); err != nil {
				t.Fatal(err)
			}
			wantFree(t, mems[i], 4)
		}
	})
}

// TestCloseWhileTransmitting is the regression test for the send on a
// closed queue: one goroutine transmits flat out while the peer port
// closes. No panic, and once the transmitter has stopped every slot is
// back — whichever side drained last took the frame that raced. Run it
// under -race.
func TestCloseWhileTransmitting(t *testing.T) {
	t.Run("port close", func(t *testing.T) {
		for round := 0; round < 50; round++ {
			mm := newMem(t, 64)
			_, a, b := twoHostsOn(t, DefaultLink, mm)
			frame := buildFrame(t, a, b, []byte("flat out"))
			stop := make(chan struct{})
			sent := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := a.Transmit(frame, timebase.Breakdown{}); err != nil {
						t.Error(err)
						return
					}
					if i == 32 {
						close(sent)
					}
				}
			}()
			<-sent
			// Keep the queue moving so the transmitter is taking slots,
			// not only failing on an exhausted pool, when the port shuts.
			for i := 0; i < 16; i++ {
				if f, ok := b.TryRecv(); ok {
					if err := mm.Release(f.Slot); err != nil {
						t.Fatal(err)
					}
				}
			}
			b.Close()
			time.Sleep(50 * time.Microsecond)
			close(stop)
			wg.Wait()
			wantFree(t, mm, 64)
			if t.Failed() {
				return
			}
		}
	})
}
