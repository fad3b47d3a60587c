// Run-to-completion fast path (DESIGN.md §11): an Emit on an opted-in
// stream whose fanout is purely local delivers straight into the sink RX
// rings on the emitting goroutine — no TX lane push, no scheduler dwell,
// no poller wakeup. The paper's DP-class semantics permit this for
// latency-class flows; the preconditions below are exactly the cases
// where the queued path's machinery adds ordering or flow-control value
// the fast path cannot replicate, so failing any of them falls back.

package core

import (
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/telemetry"
)

// RTCMaxFanout is the largest local fanout the run-to-completion path
// will deliver synchronously. Beyond it, the emitting goroutine would be
// doing the poller's batched work without its amortization, so Emit
// falls back to the queued path and lets dispatch fan out.
const RTCMaxFanout = 4

// emitRTC attempts the run-to-completion delivery of one emitted buffer
// and reports whether it committed. On false, nothing happened: the
// caller still owns the buffer and must take the queued path.
//
// Preconditions (fallback when any fails):
//   - no remote peer subscribed to the channel (remote sends need the
//     poller's endpoint serialization and per-peer framing);
//   - at least one and at most RTCMaxFanout local sinks;
//   - for time-sensitive streams, the 802.1Qbv gate of the stream's
//     class is open right now (a closed gate means the packet must wait,
//     which is the shaper's job);
//   - no sink ring is full (the queued path is where backpressure
//     and drop accounting live; checking up front also makes the
//     fallback deterministic for tests);
//   - no earlier message of this source is still on the queued path (a
//     fallback waiting in the lane, the scheduler or behind a gate):
//     delivering now would overtake it, and per-source FIFO holds whether
//     or not a stream opts into RTC.
//
//insane:hotpath
func (s *SourceHandle) emitRTC(b *Buffer, n int, seq uint32, sampled bool) bool {
	if s.queued.Load() != 0 {
		return false
	}
	rt := s.stream.conn.rt
	// Sinks and subscribers of the same instant: one view, one route.
	route := rt.view.Load().routes[s.channel]
	sinks := route.sinks
	if len(route.hops) != 0 || len(sinks) == 0 || len(sinks) > RTCMaxFanout {
		return false
	}
	if s.gate != nil && !s.gate.GateOpenAt(s.stream.opts.Class, rt.clock.Now()) {
		return false
	}
	//insane:bounded by=fanout capped at RTCMaxFanout by the admission check above
	for _, k := range sinks {
		if k.ring.Len() >= k.ring.Cap() {
			return false
		}
	}

	// Commit. The RTC hop replaces the queued path's IPC+scheduler
	// charges; the per-sink delivery cost is deliver's, the same on every
	// path. The INSANE header is never encoded: the payload already sits at
	// MsgHeadroom, where a consume reads it.
	hop := rt.tb.Scale(rt.rc.RTCDeliver.Class, rt.rc.RTCDeliver.Fixed+rt.rc.RTCDeliver.Amort)
	bd := b.Breakdown
	bd.Send += hop

	// The slot is the runtime's from here (Emit), and one reference per
	// sink: the emitter's own is handed to the first, so nothing here
	// touches the slot once deliver has it. A consumer-side race may still
	// fill a ring after the advisory check above; deliver drops and counts
	// that delivery like any other.
	rt.mm.SetOwner(b.Slot, mempool.NoOwner)
	if len(sinks) > 1 {
		_ = rt.mm.AddRef(b.Slot, len(sinks)-1)
	}
	h := rt.mm.Header(b.Slot)
	h.VTime = b.VTime.Add(hop)
	h.Breakdown = bd
	h.Len = uint32(n)
	h.Stamps = 0
	if sampled {
		h.Stamps = uint8(stampsLocal)
		h.AdmitT = rt.clock.Now()
	}
	delivered := rt.deliver(s.shard, b.Slot, h, sinks)
	s.shard.Add(telemetry.CtrLocalDeliveries, uint64(delivered))
	s.shard.Add(telemetry.CtrRTCDeliveries, uint64(delivered))

	s.recordOutcome(Outcome{Seq: seq, LocalSinks: len(sinks)})
	s.shard.Inc(telemetry.CtrEmits)
	s.shard.Add(telemetry.CtrEmitBytes, uint64(n))
	// Ownership of the slot moved to the sinks; the buffer is dead to the
	// caller (same contract as the queued Emit).
	*b = Buffer{}
	return true
}
