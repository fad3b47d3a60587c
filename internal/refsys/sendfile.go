package refsys

import (
	"time"

	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// Sendfile models the sendfile(2)-based streaming baseline of Fig. 11:
// the kernel pushes file pages straight to the socket, so there is no
// user-space copy on the sender (sender-side zero-copy), but the stream
// still traverses the kernel protocol stack per packet and the receiver
// copies every fragment for reassembly.
type Sendfile struct {
	tb model.Testbed
	// chunk is the per-packet payload (jumbo frames, as the evaluation
	// enables them for big payloads).
	chunk int
}

// NewSendfile returns the baseline model for a testbed.
func NewSendfile(tb model.Testbed) *Sendfile {
	return &Sendfile{tb: tb, chunk: netstack.MaxPayload(netstack.JumboMTU)}
}

// perPacket returns the pipeline bottleneck for one chunk: the kernel
// stack stage without the user→kernel copy (that is what sendfile saves),
// against the wire and the receiver stack (which still copies).
func (s *Sendfile) perPacket() time.Duration {
	tc := model.KernelUDP()
	// Sender: stack processing only, no syscall per packet (one sendfile
	// call covers the file) and no user copy.
	txStack := tc.TxStack
	txStack.PerByteNs = 0 // page references, not copies
	tx := txStack.Occupancy(s.chunk, 1, &s.tb)
	// Receiver: full kernel receive path including the copy out.
	rx := tc.RxStack.Occupancy(s.chunk, 1, &s.tb) + tc.RxPoll.Occupancy(s.chunk, 1, &s.tb)
	wire := s.tb.WireOccupancy(s.chunk + netstack.HeadersLen)
	worst := tx
	if rx > worst {
		worst = rx
	}
	if wire > worst {
		worst = wire
	}
	return worst
}

// FrameLatency returns the modeled time to move one frame of size bytes
// end to end: pipeline fill (one-way latency of the first chunk) plus one
// bottleneck period per remaining chunk.
func (s *Sendfile) FrameLatency(size int) time.Duration {
	chunks := (size + s.chunk - 1) / s.chunk
	if chunks == 0 {
		chunks = 1
	}
	oneWay := model.Build(model.SysUDPNonBlocking).OneWayLatency(s.chunk, s.tb)
	return oneWay + time.Duration(chunks-1)*s.perPacket()
}

// FPS returns the modeled sustainable frames per second for frames of
// size bytes.
func (s *Sendfile) FPS(size int) float64 {
	chunks := (size + s.chunk - 1) / s.chunk
	if chunks == 0 {
		chunks = 1
	}
	perFrame := time.Duration(chunks) * s.perPacket()
	if perFrame <= 0 {
		return 0
	}
	return float64(time.Second) / float64(perFrame)
}

// Goodput returns the modeled sustained byte rate of the baseline.
func (s *Sendfile) Goodput() timebase.Rate {
	return timebase.Goodput(s.chunk, s.perPacket())
}
