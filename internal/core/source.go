// TX data path: a source borrows a buffer and emits it — into the
// session's TX lane, or run-to-completion (rtc.go).

package core

import (
	"errors"
	"sync/atomic"

	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/sched"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// txToken travels from the client library to the runtime over the
// per-technology TX rings: slot ids, never bytes (§5.3, Fig. 4). It is the
// one record of a queued message from Emit to dispatch — the lane ring, the
// scheduler queue and the poller's batch all hold it by value, and nothing
// is pooled or allocated between the two (TestTxTokenSize pins its size).
// The message's virtual clock and admission stamp are not in it: they live
// in the slot's mempool.Header, written by Emit and read by dispatch once
// the slot is proven live.
type txToken struct {
	// The narrow fields share three words: the token is copied into and out
	// of a ring or queue cell three times per message, and a lane holds
	// txRingDepth of them.
	slot    mempool.SlotID
	channel uint32
	seq     uint32
	msgLen  int32 // INSANE header + payload
	class   uint8
	timing  qos.Timing
	// sampled marks a message that feeds the latency histograms (samples);
	// enqT is then the clock when the poller popped the token and filed it
	// with the scheduler: one reading closes emit_pickup (opened by the
	// header's AdmitT) and opens sched_dwell. Unset and unread on every
	// other message.
	sampled bool
	enqT    timebase.VTime
	// src is the emitting source; its tenant picks the WDRR queue and holds
	// the in-flight charge settle returns.
	src *SourceHandle
}

// settle ends a queued message's journey, wherever it ends — refused by a
// full lane, dispatched, found dead at dispatch, or reclaimed from a
// detached session's lane: the tenant's in-flight TX charge returns, and an
// RTC source has one message fewer that a run-to-completion Emit could
// overtake.
//
//insane:hotpath
//insane:release resource=tenant-tx
func (tok *txToken) settle() {
	tok.src.ten.unchargeTX()
	if tok.src.rtc {
		tok.src.queued.Add(-1)
	}
}

// Buffer is a zero-copy send buffer borrowed from the runtime memory
// manager (get_buffer). The application writes into Payload and must not
// touch it again after Emit (no after-write protection, §5.1). The struct
// is the caller's: GetBuffer fills it, and a successful Emit or an Abort
// clears it, so the public layer embeds it in its own pooled wrapper and
// the two cost one pool round trip, not two.
type Buffer struct {
	// Slot identifies the backing memory slot.
	Slot mempool.SlotID
	// Payload is the writable application area of the slot.
	Payload []byte
	// Breakdown seeds the packet's virtual clock, split by Fig. 6 stage;
	// an echo server copies the request's here so round-trip accounting
	// accumulates.
	Breakdown timebase.Breakdown

	buf []byte
}

// Outcome reports what happened to an emitted message
// (check_emit_outcome).
type Outcome struct {
	Seq uint32
	// LocalSinks and RemotePeers count the deliveries fanned out.
	LocalSinks  int
	RemotePeers int
	// Err is non-nil when the send failed.
	Err error
}

// outcomeWindow is how many past outcomes a source retains: 16 KB of
// outcomeEntry.
const outcomeWindow = 1024

// outcomeEntry is one outcome of a source's window, published without a
// lock. word packs the message's seq (high 32 bits), a recorded bit, a
// failed bit and the two fan-out counts, 15 bits each and saturating; it is
// what a reader loads. err holds the error of a failed message beside its
// seq, so a reader that found seq's word takes the error only if it is
// seq's, never the next occupant's.
//
//insane:shared
type outcomeEntry struct {
	word atomic.Uint64              //insane:guardedby atomic
	err  atomic.Pointer[outcomeErr] //insane:guardedby atomic
}

// outcomeErr is a failed message's error and the seq it belongs to.
type outcomeErr struct {
	seq uint32
	err error
}

// The outcome word below the seq.
const (
	outcomeRecorded  = 1 << 31
	outcomeFailed    = 1 << 30
	outcomeCountBits = 15
	// outcomeCountMax is where a fan-out count saturates.
	outcomeCountMax = 1<<outcomeCountBits - 1
)

// outcomeCount is n in its outcome-word field, saturated.
func outcomeCount(n int) uint64 { return uint64(min(max(n, 0), outcomeCountMax)) }

// SourceHandle is a data producer on one channel (create_source).
//
//insane:shared
type SourceHandle struct {
	stream  *StreamHandle //insane:guardedby immutable after=CreateSource
	channel uint32        //insane:guardedby immutable after=CreateSource
	lane    *txLane       //insane:guardedby immutable after=CreateSource
	seq     atomic.Uint32 //insane:guardedby atomic
	closed  atomic.Bool   //insane:guardedby atomic
	// shard is the one telemetry shard Emit records into: one of the
	// tenant's, assigned at creation so concurrent publishers spread out.
	shard *telemetry.Shard //insane:guardedby immutable after=CreateSource
	// rtc opts Emit into the run-to-completion fast path (DESIGN.md §11).
	rtc bool //insane:guardedby immutable after=CreateSource
	// queued counts an RTC source's messages that took the queued path and
	// have not settled yet (txToken.settle). While it is non-zero emitRTC
	// refuses: delivering now would overtake them. Untouched, and unread,
	// on a source without RTC.
	queued atomic.Int32 //insane:guardedby atomic
	// ten caches the session's tenant binding so the Emit/GetBuffer quota
	// checks skip a pointer chase.
	ten *tenant //insane:guardedby immutable after=CreateSource
	// st is the stream technology's state: Emit rings its pollers.
	st *techState //insane:guardedby immutable after=CreateSource
	// gate is the stream technology's egress scheduler, cached only for
	// RTC time-sensitive sources so the 802.1Qbv admission check is one
	// immutable read, no scheduler lock.
	gate *sched.Egress[txToken] //insane:guardedby immutable after=CreateSource

	// outcomes holds the fate of the last outcomeWindow messages, indexed
	// by seq: one atomic store records one (recordOutcome).
	outcomes []outcomeEntry //insane:guardedby immutable after=CreateSource
}

// Channel returns the source's channel id.
func (s *SourceHandle) Channel() uint32 { return s.channel }

// GetBuffer borrows a slot able to hold size payload bytes and fills b
// with it, charged against the session tenant's slot budget
// (mempool.ErrQuota when the tenant is at its cap; the public layer maps
// it to ErrTenantQuota). On an error b is left as it was.
//
//insane:hotpath
//insane:acquire resource=mem-slot on=nilerr
func (s *SourceHandle) GetBuffer(b *Buffer, size int) error {
	if s.closed.Load() {
		return ErrClosed
	}
	slot, buf, err := s.stream.conn.rt.mm.GetBudget(MsgHeadroom+size, s.stream.conn.id, s.ten.budget)
	if err != nil {
		if errors.Is(err, mempool.ErrQuota) {
			s.shard.Inc(telemetry.CtrTenantQuotaRejects)
		}
		return err
	}
	*b = Buffer{
		Slot:    slot,
		Payload: buf[MsgHeadroom : MsgHeadroom+size],
		buf:     buf,
	}
	return nil
}

// Abort returns an unsent buffer's slot to the pool and clears b; aborting
// a cleared buffer is a no-op.
//
//insane:hotpath
//insane:release resource=mem-slot
func (s *SourceHandle) Abort(b *Buffer) {
	if b.buf != nil {
		_ = s.stream.conn.rt.mm.Release(b.Slot)
		*b = Buffer{}
	}
}

// samples decides, once and at admission, whether the source's seq-th
// message feeds the latency histograms (DESIGN.md §8): the first and then
// every telemetry.SamplePeriod-th, every message of a time-sensitive
// stream (few by nature, and their tail is what the timing guarantee is
// stated against), none of a stream that opted out. The decision travels
// with the message; no later boundary makes its own.
func (s *SourceHandle) samples(seq uint32) bool {
	st := s.stream
	return !st.opts.NoTelemetry && (st.opts.Timing == qos.TimingSensitive || (seq-1)&(telemetry.SamplePeriod-1) == 0)
}

// Emit hands n payload bytes of the buffer to the runtime for
// transmission (emit_data) and returns the sequence number usable with
// Outcome. The slot passes to the runtime — its reference and its owner:
// an emitted message outlives the emitting session, whose Close reclaims
// only what it borrowed and never emitted — and b is cleared; on an error,
// ErrBackpressure above all, the caller keeps it and may retry.
//
//insane:hotpath
//insane:transfer resource=mem-slot on=nilerr
func (s *SourceHandle) Emit(b *Buffer, n int) (uint32, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if n < 0 || n > len(b.Payload) {
		return 0, ErrEmitRange
	}
	seq := s.seq.Add(1)
	sampled := s.samples(seq)
	if s.rtc {
		if s.emitRTC(b, n, seq, sampled) {
			return seq, nil
		}
		// A precondition failed (remote subscriber, fanout over budget,
		// closed TSN gate, a full sink ring, or an earlier fallback still
		// on its way): queued path below, counted in until it settles.
		s.shard.Inc(telemetry.CtrRTCFallbacks)
		s.queued.Add(1)
	}
	st := s.stream
	// Tenant admission: the queued path holds a TX token from here until
	// the poller dispatches (or drops) the message; a tenant at its
	// in-flight cap is rejected before touching the ring. RTC deliveries
	// above never queue, so they bypass the token quota by design.
	if !s.ten.chargeTX() {
		s.shard.Inc(telemetry.CtrTenantQuotaRejects)
		if s.rtc {
			s.queued.Add(-1)
		}
		return 0, ErrTenantQuota
	}
	encodeHeader(b.buf[headroomOffset:], header{
		kind:    kindData,
		channel: s.channel,
		class:   st.opts.Class,
		seq:     seq,
		sampled: sampled,
	})
	tok := txToken{
		slot:    b.Slot,
		msgLen:  int32(HeaderLen + n),
		channel: s.channel,
		class:   st.opts.Class,
		timing:  st.opts.Timing,
		seq:     seq,
		src:     s,
		sampled: sampled,
	}
	// The message's clock goes into its slot's header, charged the IPC
	// hop: the token crosses the client→runtime ring.
	rt := s.stream.conn.rt
	mm := rt.mm
	h := mm.Header(b.Slot)
	ipc := rt.rc.IPCTx
	d := rt.tb.Scale(ipc.Class, ipc.Fixed+ipc.Amort)
	h.Breakdown = b.Breakdown
	h.Breakdown.Send += d
	if sampled {
		h.AdmitT = rt.clock.Now()
	}
	mm.SetOwner(b.Slot, mempool.NoOwner)
	if !s.lane.push(tok) {
		// Backpressure: the caller keeps buffer ownership and may retry.
		mm.SetOwner(b.Slot, s.stream.conn.id)
		tok.settle()
		s.shard.Inc(telemetry.CtrEmitBackpressure)
		return 0, ErrBackpressure
	}
	// Ownership of the slot moved to the runtime; the buffer is dead to
	// the caller (paircheck rule).
	*b = Buffer{}
	s.shard.Inc(telemetry.CtrEmits)
	s.shard.Add(telemetry.CtrEmitBytes, uint64(n))
	s.st.ring(telemetry.CtrPollerWakesTX)
	return seq, nil
}

// headroomOffset is where the INSANE header starts inside a slot.
const headroomOffset = MsgHeadroom - HeaderLen

// recordOutcome stores the fate of an emitted message, evicting the
// outcome outcomeWindow messages older: one store of the entry's word. The
// error goes in first, and only when there is one or the entry still holds
// an older one, so a reader of the word finds it there.
//
//insane:hotpath
func (s *SourceHandle) recordOutcome(o Outcome) {
	e := &s.outcomes[o.Seq%outcomeWindow]
	w := uint64(o.Seq)<<32 | outcomeRecorded | outcomeCount(o.LocalSinks)<<outcomeCountBits | outcomeCount(o.RemotePeers)
	if o.Err != nil {
		w |= outcomeFailed
		e.recordErr(o.Seq, o.Err)
	} else if e.err.Load() != nil {
		e.err.Store(nil)
	}
	e.word.Store(w)
}

// recordErr stores a failed message's error in its outcome entry.
//
//insane:coldpath a message failed: the error record is allocated per failure
func (e *outcomeEntry) recordErr(seq uint32, err error) {
	e.err.Store(&outcomeErr{seq: seq, err: err})
}

// Outcome retrieves the result of a past Emit, if still retained
// (check_emit_outcome). Fan-out counts above outcomeCountMax read as
// outcomeCountMax.
func (s *SourceHandle) Outcome(seq uint32) (Outcome, bool) {
	e := &s.outcomes[seq%outcomeWindow]
	w := e.word.Load()
	if w&outcomeRecorded == 0 || uint32(w>>32) != seq {
		return Outcome{}, false
	}
	o := Outcome{
		Seq:         seq,
		LocalSinks:  int(w >> outcomeCountBits & outcomeCountMax),
		RemotePeers: int(w & outcomeCountMax),
	}
	if w&outcomeFailed != 0 {
		rec := e.err.Load()
		if rec == nil || rec.seq != seq {
			return Outcome{}, false // evicted while read
		}
		o.Err = rec.err
	}
	return o, true
}

// Close closes the source (close_source).
func (s *SourceHandle) Close() { s.closed.Store(true) }
