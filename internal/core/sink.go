// RX data path: the one delivery routine that fills sink rings, and the
// consume/release calls that empty them.

package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/ringbuf"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// rxRingDepth bounds each sink RX ring.
const rxRingDepth = 1024

// Delivery is one received message, borrowed zero-copy from the runtime
// pools: release it as soon as processing ends (release_buffer). It is
// also the element of the sink RX rings: deliver resolves the payload view
// once and writes the Delivery into the ring cell, and a consume reads it
// out of the cell straight into the struct the caller owns — one copy per
// ring crossing, nothing rebuilt on the way (TestSinkTokenSize pins its
// size).
type Delivery struct {
	// Payload is the read-only view of the message in its slot.
	Payload []byte
	// VTime is the accumulated one-way virtual latency of the message.
	VTime timebase.VTime
	// Breakdown splits VTime by Fig. 6 stage.
	Breakdown timebase.Breakdown
	// admitT and pushT are the stamps of a sampled message, readings of
	// the delivering runtime's clock: when Emit admitted it, and when it
	// entered the sink ring — for a message off the wire, when it was
	// picked up from the endpoint. stamps says which of them hold.
	admitT, pushT timebase.VTime
	Slot          mempool.SlotID
	stamps        stampSet
}

// stampSet says which clock readings a message carries. The zero value is
// the unsampled message, whose stamp fields are neither written nor read:
// a clock that reads zero is a reading like any other.
type stampSet uint8

const (
	// stampsLocal marks a sampled message admitted on this runtime:
	// admitT and pushT hold.
	stampsLocal stampSet = iota + 1
	// stampsRemote marks a sampled message off the wire: pushT holds, and
	// its admission was read from another runtime's clock.
	stampsRemote
)

// pktDelivery is the delivery of a data packet: the payload view past the
// INSANE header, on the packet's clock.
func pktDelivery(pkt *datapath.Packet) Delivery {
	off := pkt.Off + HeaderLen
	return Delivery{
		Payload:   pkt.Buf[off : off+pkt.Len-HeaderLen],
		VTime:     pkt.VTime,
		Breakdown: pkt.Breakdown,
		Slot:      pkt.Slot,
	}
}

// deliver hands one message to every sink of its channel — the one place
// a delivery enters a sink ring, whatever the origin (poller dispatch,
// remote receive, run-to-completion Emit). The caller holds one slot
// reference per sink: each either travels with the delivery into the
// sink's ring or, when that ring is full, is released here and the drop
// counted once, on the shard of the sink that refused it. It returns how
// many sinks took the message. msg is the caller's scratch: its clock is
// rewritten per sink. A sampled message admitted here closes stage_send on
// the caller's shard and carries the reading on as its push stamp.
//
//insane:hotpath
func (r *Runtime) deliver(shard *telemetry.Shard, msg *Delivery, sinks []*SinkHandle) int {
	if msg.stamps == stampsLocal {
		msg.pushT = r.clock.Now()
		shard.Observe(telemetry.HistStageSend, int64(msg.pushT.Sub(msg.admitT)))
	}
	delivered := 0
	vtime, recv := msg.VTime, msg.Breakdown.Recv
	//insane:bounded by=one entry per sink registered on the channel, fixed by the application
	for i, k := range sinks {
		// Delivery cost, plus the per-extra-sink cache effect (Fig. 8b).
		d := r.deliveryCost(i)
		msg.VTime = vtime.Add(d)
		msg.Breakdown.Recv = recv + d
		if !k.ring.TryPushFrom(msg) {
			_ = r.mm.Release(msg.Slot)
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

// deliveryCost returns the charged cost of delivering to the i-th sink of
// a packet's fanout.
func (r *Runtime) deliveryCost(i int) time.Duration {
	switch {
	case i == 0:
		return r.deliverCost[0]
	case r.rc.SinkCacheKnee > 0 && i >= r.rc.SinkCacheKnee:
		return r.deliverCost[2]
	}
	return r.deliverCost[1]
}

// SinkHandle is a data consumer on one channel (create_sink).
//
//insane:shared
type SinkHandle struct {
	stream  *StreamHandle           //insane:guardedby immutable after=CreateSink
	channel uint32                  //insane:guardedby immutable after=CreateSink
	ring    *ringbuf.MPMC[Delivery] //insane:guardedby immutable after=CreateSink
	notify  chan struct{}           //insane:guardedby immutable after=CreateSink
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
// the non-blocking flag). On an error d is left as it was.
//
//insane:hotpath
//insane:acquire resource=mem-slot on=nilerr
func (k *SinkHandle) TryConsume(d *Delivery) error {
	if k.closed.Load() {
		return ErrClosed
	}
	if !k.ring.TryPopInto(d) {
		return ErrNoData
	}
	k.shard.Inc(telemetry.CtrConsumes)
	k.shard.Add(telemetry.CtrConsumeBytes, uint64(len(d.Payload)))
	if d.stamps != 0 && !k.noTel {
		k.closeStamps(d)
	}
	return nil
}

// closeStamps closes the intervals a sampled message has open when it
// reaches the application: stage_recv from its push stamp and, for a
// message admitted on this runtime's clock, consume_latency from its
// admission stamp.
//
//insane:hotpath
func (k *SinkHandle) closeStamps(d *Delivery) {
	now := k.stream.conn.rt.clock.Now()
	k.shard.Observe(telemetry.HistStageRecv, int64(now.Sub(d.pushT)))
	if d.stamps == stampsLocal {
		k.shard.Observe(telemetry.HistConsumeLatency, int64(now.Sub(d.admitT)))
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
	_ = k.stream.conn.rt.mm.Release(d.Slot)
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
	var d Delivery
	//insane:bounded by=the sink ring's fixed capacity, rxRingDepth
	for k.ring.TryPopInto(&d) {
		_ = k.stream.conn.rt.mm.Release(d.Slot)
	}
}

// wake signals the sink's notify channel without blocking.
func (k *SinkHandle) wake() {
	select {
	case k.notify <- struct{}{}:
	default:
	}
}
