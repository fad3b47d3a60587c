// RX data path: the one delivery routine that fills sink rings, and the
// consume/release calls that empty them.

package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/ringbuf"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// rxRingDepth bounds each sink RX ring.
const rxRingDepth = 1024

// Delivery is one received message, borrowed zero-copy from the runtime
// pools: release it as soon as processing ends (release_buffer). A consume
// builds it from the sink ring's descriptor and the slot's header.
type Delivery struct {
	// Payload is the read-only view of the message in its slot.
	Payload []byte
	// VTime is the accumulated one-way virtual latency of the message.
	VTime timebase.VTime
	// Breakdown splits VTime by Fig. 6 stage.
	Breakdown timebase.Breakdown
	Slot      mempool.SlotID
}

// sinkDesc is the element of a sink RX ring: the slot of a delivered
// message and which of the three delivery costs this sink is charged.
// Everything the sinks of one message share — payload length, clock,
// stamps — is in the slot's header, written once before the first push
// (TestSinkDescSize pins the size).
type sinkDesc struct {
	slot mempool.SlotID
	cost uint8
}

// stampSet says which clock readings a message carries, in its slot's
// header (mempool.Header.Stamps). The zero value is the unsampled message,
// whose stamp fields are neither written nor read: a clock that reads zero
// is a reading like any other.
type stampSet uint8

const (
	// stampsLocal marks a sampled message admitted on this runtime:
	// AdmitT and PushT hold.
	stampsLocal stampSet = iota + 1
	// stampsRemote marks a sampled message off the wire: PushT holds, and
	// its admission was read from another runtime's clock.
	stampsRemote
)

// deliver hands one message to every sink of its channel — the one place
// a delivery enters a sink ring, whatever the origin (poller dispatch,
// remote receive, run-to-completion Emit). The caller has written the
// slot's header — clock, Len and Stamps — and holds one slot reference per
// sink: each either travels with the descriptor into the sink's ring or,
// when that ring is full, is released here and the drop counted once, on
// the shard of the sink that refused it. It returns how many sinks took
// the message. A sampled message gets its push stamp here, and one
// admitted here closes stage_send on the caller's shard.
//
//insane:hotpath
func (r *Runtime) deliver(shard *telemetry.Shard, slot mempool.SlotID, h *mempool.Header, sinks []*SinkHandle) int {
	if stamps := stampSet(h.Stamps); stamps != 0 {
		h.PushT = r.clock.Now()
		if stamps == stampsLocal {
			shard.Observe(telemetry.HistStageSend, int64(h.PushT.Sub(h.AdmitT)))
		}
	}
	delivered := 0
	//insane:bounded by=one entry per sink registered on the channel, fixed by the application
	for i, k := range sinks {
		if !k.ring.TryPush(sinkDesc{slot: slot, cost: r.costIndex(i)}) {
			_ = r.mm.Release(slot)
			k.shard.Inc(telemetry.CtrRingFullDrops)
			continue
		}
		delivered++
		if k.closed.Load() {
			// The sink closed after the caller loaded its view, and its
			// Close may have drained the ring before this push: drain it
			// again. Pops are exclusive, so each slot is released once.
			k.drain()
			continue
		}
		k.wake()
	}
	return delivered
}

// costIndex returns which of the runtime's delivery costs the i-th sink of
// a packet's fanout is charged: the first sink's, or a further sink's with
// or without the per-extra-sink cache effect (Fig. 8b).
func (r *Runtime) costIndex(i int) uint8 {
	switch {
	case i == 0:
		return 0
	case r.rc.SinkCacheKnee > 0 && i >= r.rc.SinkCacheKnee:
		return 2
	}
	return 1
}

// SinkHandle is a data consumer on one channel (create_sink).
//
//insane:shared
type SinkHandle struct {
	stream  *StreamHandle           //insane:guardedby immutable after=CreateSink
	channel uint32                  //insane:guardedby immutable after=CreateSink
	ring    *ringbuf.MPMC[sinkDesc] //insane:guardedby immutable after=CreateSink
	notify  chan struct{}           //insane:guardedby immutable after=CreateSink
	// mm and costs are the runtime's pools and delivery costs, copied at
	// CreateSink so a consume reads them off the handle.
	mm    *mempool.Manager //insane:guardedby immutable after=CreateSink
	costs [3]time.Duration //insane:guardedby immutable after=CreateSink
	// done is closed by Close, after closed is set: the one signal every
	// Consume blocked on the sink sees (notify is 1-deep and wakes one).
	done   chan struct{} //insane:guardedby immutable after=CreateSink
	closed atomic.Bool   //insane:guardedby atomic
	// shard is the one telemetry shard Consume records into, and deliver
	// a drop on this sink's full ring: one of the session tenant's.
	shard *telemetry.Shard //insane:guardedby immutable after=CreateSink
	// noTel is the stream's telemetry opt-out: a sampled message consumed
	// here closes no interval.
	noTel bool //insane:guardedby immutable after=CreateSink
}

// Channel returns the sink's channel id.
func (k *SinkHandle) Channel() uint32 { return k.channel }

// Available returns the number of queued deliveries (data_available).
func (k *SinkHandle) Available() int { return k.ring.Len() }

// TryConsume pops one delivery into d without blocking (consume_data with
// the non-blocking flag): the payload sits at MsgHeadroom in the slot, and
// the clock is the header's plus this sink's delivery cost. On an error d
// is left as it was.
//
//insane:hotpath
//insane:acquire resource=mem-slot on=nilerr
func (k *SinkHandle) TryConsume(d *Delivery) error {
	if k.closed.Load() {
		return ErrClosed
	}
	desc, ok := k.ring.TryPop()
	if !ok {
		return ErrNoData
	}
	// Field by field, not a composite literal: that is built on the stack
	// and copied into *d whole, which put 15 % on local-rtc-fanout's p50.
	h, buf := k.mm.Held(desc.slot)
	cost := k.costs[desc.cost]
	d.Payload = buf[MsgHeadroom : MsgHeadroom+int(h.Len)]
	d.VTime = h.VTime.Add(cost)
	d.Breakdown = h.Breakdown
	d.Breakdown.Recv += cost
	d.Slot = desc.slot
	k.shard.Inc(telemetry.CtrConsumes)
	k.shard.Add(telemetry.CtrConsumeBytes, uint64(h.Len))
	if h.Stamps != 0 && !k.noTel {
		k.closeStamps(h)
	}
	return nil
}

// closeStamps closes the intervals a sampled message has open when it
// reaches the application: stage_recv from its push stamp and, for a
// message admitted on this runtime's clock, consume_latency from its
// admission stamp.
//
//insane:hotpath
func (k *SinkHandle) closeStamps(h *mempool.Header) {
	now := k.stream.conn.rt.clock.Now()
	k.shard.Observe(telemetry.HistStageRecv, int64(now.Sub(h.PushT)))
	if stampSet(h.Stamps) == stampsLocal {
		k.shard.Observe(telemetry.HistConsumeLatency, int64(now.Sub(h.AdmitT)))
	}
}

// Consume pops one delivery into d, waiting until one arrives, cancel is
// closed (ErrCanceled) or the sink or its session closes (ErrClosed) —
// consume_data with the blocking flag. A nil cancel channel never fires.
// An empty sink is tried again after each of handoffYields yields before
// Consume blocks: the poller about to deliver may be waiting for this
// processor. There is no timeout of its own: the public layer passes a
// context's Done, and a context with a deadline already owns the one timer
// the wait needs.
//
//insane:hotpath allow=block
//insane:acquire resource=mem-slot on=nilerr
func (k *SinkHandle) Consume(d *Delivery, cancel <-chan struct{}) error {
	//insane:bounded by=blocking-consume wait: exits on data, cancellation or close, not per-packet work
	for tries := 0; ; tries++ {
		err := k.TryConsume(d)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrNoData) {
			return err
		}
		if tries < handoffYields {
			runtime.Gosched()
			continue
		}
		// A wake already in the slot is taken without blocking: only a
		// wait that finds it empty is a park.
		select {
		case <-k.notify:
		default:
			k.shard.Inc(telemetry.CtrConsumeParks)
			select {
			case <-k.notify:
			case <-k.done:
				return ErrClosed
			case <-cancel:
				return ErrCanceled
			}
		}
	}
}

// Release returns a consumed delivery's memory to the pool
// (release_buffer) and clears d; releasing a cleared delivery is a no-op.
//
//insane:hotpath
//insane:release resource=mem-slot
func (k *SinkHandle) Release(d *Delivery) {
	if d.Payload == nil {
		return // never filled, or already released
	}
	_ = k.mm.Release(d.Slot)
	*d = Delivery{}
}

// Close closes the sink, withdrawing its subscription (close_sink) and
// failing every Consume blocked on it with ErrClosed.
func (k *SinkHandle) Close() {
	if k.closed.CompareAndSwap(false, true) {
		close(k.done)
		k.stream.conn.rt.unregisterSink(k)
		k.drain()
	}
}

// drain releases every delivery queued in a closed sink's ring, so the
// slots return to the pool. Close calls it, and so does a deliver that
// pushed into the ring after Close set closed.
//
//insane:hotpath
func (k *SinkHandle) drain() {
	//insane:bounded by=the sink ring's fixed capacity, rxRingDepth
	for {
		desc, ok := k.ring.TryPop()
		if !ok {
			return
		}
		_ = k.mm.Release(desc.slot)
	}
}

// wake signals the sink's notify channel without blocking.
func (k *SinkHandle) wake() {
	select {
	case k.notify <- struct{}{}:
	default:
	}
}
