// RX data path: the one delivery routine that fills sink rings, and the
// consume/release calls that empty them.

package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/ringbuf"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// rxToken travels from the runtime to a sink's RX ring.
type rxToken struct {
	slot    mempool.SlotID
	buf     []byte
	off     int
	length  int
	channel uint32
	vtime   timebase.VTime
	bd      fabric.Breakdown
}

// rxRingDepth bounds each sink RX ring.
const rxRingDepth = 1024

// deliveryPool recycles Delivery wrappers (see bufferPool).
var deliveryPool = sync.Pool{New: func() any { return new(Delivery) }}

// pktToken is the delivery token of a data packet: the payload view past
// the INSANE header, on the packet's clock.
func pktToken(pkt *datapath.Packet, channel uint32) rxToken {
	return rxToken{
		slot:    pkt.Slot,
		buf:     pkt.Buf,
		off:     pkt.Off + HeaderLen,
		length:  pkt.Len - HeaderLen,
		channel: channel,
		vtime:   pkt.VTime,
		bd:      pkt.Breakdown,
	}
}

// deliver hands one message to every sink of its channel — the one place
// a token enters a sink ring, whatever the origin (poller dispatch, remote
// receive, run-to-completion Emit). The caller holds one slot reference
// per sink: each either travels with the token into the sink's ring or,
// when that ring is full, is released here and the drop counted on the
// caller's shard and the sink tenant's. It returns how many sinks took
// the message. noTel is the message's telemetry opt-out; a sink's own
// opt-out counts as well.
//
//insane:hotpath
func (r *Runtime) deliver(shard *telemetry.Shard, tok rxToken, sinks []*SinkHandle, noTel bool) int {
	delivered := 0
	vtime, recv := tok.vtime, tok.bd.Recv
	//insane:bounded by=one entry per sink registered on the channel, fixed by the application
	for i, k := range sinks {
		// Delivery cost, plus the per-extra-sink cache effect (Fig. 8b).
		d := r.deliveryCost(i)
		tok.vtime = vtime.Add(d)
		tok.bd.Recv = recv + d
		if !k.ring.TryPush(tok) {
			_ = r.mm.Release(tok.slot)
			shard.Inc(telemetry.CtrRingFullDrops)
			if k.ten != nil {
				k.ten.shard.Inc(telemetry.CtrRingFullDrops)
			}
			continue
		}
		delivered++
		if !noTel && !k.noTel {
			shard.Observe(telemetry.HistDeliverLatency, int64(d))
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

// Delivery is one received message, borrowed zero-copy from the runtime
// pools: release it as soon as processing ends (release_buffer).
type Delivery struct {
	Slot    mempool.SlotID
	Payload []byte
	Channel uint32
	// VTime is the accumulated one-way virtual latency of the message.
	VTime timebase.VTime
	// Breakdown splits VTime by Fig. 6 stage.
	Breakdown fabric.Breakdown
}

// SinkHandle is a data consumer on one channel (create_sink).
//
//insane:shared
type SinkHandle struct {
	stream  *StreamHandle          //insane:guardedby immutable after=CreateSink
	channel uint32                 //insane:guardedby immutable after=CreateSink
	ring    *ringbuf.MPMC[rxToken] //insane:guardedby immutable after=CreateSink
	notify  chan struct{}          //insane:guardedby immutable after=CreateSink
	closed  atomic.Bool            //insane:guardedby atomic
	// shard is the telemetry stripe Consume records into.
	shard *telemetry.Shard //insane:guardedby immutable after=CreateSink
	noTel bool             //insane:guardedby immutable after=CreateSink
	// ten is the consuming session's tenant (nil = default): Consume
	// mirrors its counters and latency histogram into the tenant domain.
	ten *tenant //insane:guardedby immutable after=CreateSink
}

// Channel returns the sink's channel id.
func (k *SinkHandle) Channel() uint32 { return k.channel }

// Notify returns a channel signaled when new data may be available; used
// by the client library to run callbacks and blocking consumes without
// spinning.
func (k *SinkHandle) Notify() <-chan struct{} { return k.notify }

// Available returns the number of queued deliveries (data_available).
func (k *SinkHandle) Available() int { return k.ring.Len() }

// TryConsume pops one delivery without blocking (consume_data with the
// non-blocking flag).
//
//insane:hotpath
//insane:acquire resource=mem-slot on=nilerr
func (k *SinkHandle) TryConsume() (*Delivery, error) {
	if k.closed.Load() {
		return nil, ErrClosed
	}
	tok, ok := k.ring.TryPop()
	if !ok {
		return nil, ErrNoData
	}
	d := deliveryPool.Get().(*Delivery)
	*d = Delivery{
		Slot:      tok.slot,
		Payload:   tok.buf[tok.off : tok.off+tok.length],
		Channel:   tok.channel,
		VTime:     tok.vtime,
		Breakdown: tok.bd,
	}
	k.shard.Inc(telemetry.CtrConsumes)
	k.shard.Add(telemetry.CtrConsumeBytes, uint64(tok.length))
	if ten := k.ten; ten != nil {
		ten.shard.Inc(telemetry.CtrConsumes)
		ten.shard.Add(telemetry.CtrConsumeBytes, uint64(tok.length))
	}
	if !k.noTel {
		k.shard.Observe(telemetry.HistConsumeLatency, int64(tok.vtime))
		k.shard.Observe(telemetry.HistStageSend, int64(tok.bd.Send))
		k.shard.Observe(telemetry.HistStageNetwork, int64(tok.bd.Network))
		k.shard.Observe(telemetry.HistStageRecv, int64(tok.bd.Recv))
		k.shard.Observe(telemetry.HistStageProcessing, int64(tok.bd.Processing))
		if ten := k.ten; ten != nil {
			ten.shard.Observe(telemetry.HistConsumeLatency, int64(tok.vtime))
		}
	}
	return d, nil
}

// timerPool recycles the deadline timers of blocking Consumes, so a
// request/reply loop does not allocate a timer (plus its channel) per
// message.
var timerPool sync.Pool

// getTimer returns a timer firing after d.
//
//insane:acquire resource=timer
func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	//lint:ignore insanevet/hotpathcheck timer-pool miss; steady state reuses parked timers
	return time.NewTimer(d)
}

// putTimer parks a timer, draining a pending fire so the next Reset
// starts clean.
//
//insane:release resource=timer
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// Consume blocks until a delivery arrives or the timeout elapses
// (consume_data with the blocking flag). A zero timeout waits forever.
//
//insane:hotpath allow=block
//insane:acquire resource=mem-slot on=nilerr
func (k *SinkHandle) Consume(timeout time.Duration) (*Delivery, error) {
	return k.ConsumeCancel(nil, timeout)
}

// ConsumeCancel is Consume with an additional cancellation channel: it
// returns ErrCanceled as soon as cancel is closed. A nil cancel channel
// never fires; a zero timeout waits forever. The public layer builds
// context-aware consumption on top of this primitive without forcing a
// context (and its allocations) onto the timeout-only path.
//
//insane:hotpath allow=block
//insane:acquire resource=mem-slot on=nilerr
func (k *SinkHandle) ConsumeCancel(cancel <-chan struct{}, timeout time.Duration) (*Delivery, error) {
	// Fast path: data is already queued — no timer needed.
	d, err := k.TryConsume()
	if err == nil || !errors.Is(err, ErrNoData) {
		return d, err
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := getTimer(timeout)
		defer putTimer(t)
		deadline = t.C
	}
	//insane:bounded by=blocking-consume wait: exits on data, deadline, or cancellation, not per-packet work
	for {
		d, err := k.TryConsume()
		if err == nil {
			return d, nil
		}
		if !errors.Is(err, ErrNoData) {
			return nil, err
		}
		select {
		case <-k.notify:
		case <-deadline:
			return nil, ErrTimeout
		case <-cancel:
			return nil, ErrCanceled
		}
	}
}

// Release returns a consumed delivery's memory to the pool
// (release_buffer).
//
//insane:hotpath
//insane:release resource=mem-slot
func (k *SinkHandle) Release(d *Delivery) {
	if d == nil || d.Payload == nil {
		return // nil or already-released delivery
	}
	_ = k.stream.conn.rt.mm.Release(d.Slot)
	*d = Delivery{}
	deliveryPool.Put(d)
}

// Close closes the sink, withdrawing its subscription (close_sink).
func (k *SinkHandle) Close() {
	if k.closed.CompareAndSwap(false, true) {
		k.stream.conn.rt.unregisterSink(k)
		// Drain anything still queued so slots return to the pool.
		for {
			tok, ok := k.ring.TryPop()
			if !ok {
				break
			}
			_ = k.stream.conn.rt.mm.Release(tok.slot)
		}
	}
}

// wake signals the sink's notify channel without blocking.
func (k *SinkHandle) wake() {
	select {
	case k.notify <- struct{}{}:
	default:
	}
}
