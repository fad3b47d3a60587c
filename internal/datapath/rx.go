package datapath

import (
	"time"

	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
)

// PacketOf returns the packet view of a received frame as it lies in its
// receive slot: the whole frame at offset 0, still framed. Plugins that
// implement the protocols themselves move Off and Len past the headers —
// the payload of a frame at slot offset 0 already sits at Headroom.
//
//insane:hotpath
func PacketOf(f fabric.Frame) Packet {
	return Packet{
		Slot:      f.Slot,
		Buf:       f.Data[:cap(f.Data)],
		Len:       len(f.Data),
		Framed:    true,
		VTime:     f.VTime,
		Breakdown: f.Breakdown,
	}
}

// Backlog holds the frames a blocking WaitRecv took off the port ahead of
// the Poll that processes them (kernel sockets and AF_XDP can block; a
// port's queue cannot be waited on without taking its head).
type Backlog struct {
	frames []fabric.Frame
}

// Wait blocks until a frame arrives on port or the timeout elapses, and
// keeps the frame for Next.
func (b *Backlog) Wait(port *fabric.Port, timeout time.Duration) error {
	frame, err := port.Recv(timeout)
	if err != nil {
		return err
	}
	b.frames = append(b.frames, frame)
	return nil
}

// Next takes the next frame to process: one Wait set aside, else the head
// of the port's RX queue. The caller owns the frame's slot.
//
//insane:hotpath
//insane:acquire resource=mem-slot on=true
func (b *Backlog) Next(port *fabric.Port) (fabric.Frame, bool) {
	if len(b.frames) > 0 {
		frame := b.frames[0]
		b.frames = b.frames[1:]
		return frame, true
	}
	return port.TryRecv()
}

// Release gives the slots of the frames still set aside back to mm, the
// memory the port receives into.
func (b *Backlog) Release(mm *mempool.Manager) {
	for _, f := range b.frames {
		_ = mm.Release(f.Slot) // a received frame holds exactly the reference the port took
	}
	b.frames = nil
}
