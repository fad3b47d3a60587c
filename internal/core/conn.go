package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/ringbuf"
	"github.com/insane-mw/insane/internal/sched"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// Client-facing errors.
var (
	// ErrClosed is returned on operations against closed connections,
	// streams, sources or sinks.
	ErrClosed = errors.New("core: closed")
	// ErrBackpressure is returned by Emit when the session's TX ring is
	// full; the caller keeps buffer ownership and should retry.
	ErrBackpressure = errors.New("core: TX ring full, retry")
	// ErrNoData is returned by non-blocking consume on an empty sink.
	ErrNoData = errors.New("core: no data available")
	// ErrTimeout is returned by blocking consume when the deadline hits.
	ErrTimeout = errors.New("core: consume timeout")
	// ErrCanceled is returned by ConsumeCancel when the cancel channel
	// closes before data arrives; the public layer translates it to the
	// caller's context error.
	ErrCanceled = errors.New("core: consume canceled")
	// ErrNoDatapath is returned by OpenStream when the QoS mapping
	// picked a technology this host has no open endpoint for.
	ErrNoDatapath = errors.New("core: no endpoint for mapped technology")
	// ErrEmitRange is returned by Emit when the length is negative or
	// exceeds the buffer's payload capacity. It is a static sentinel —
	// Emit is on the hot path and must not format an error per call.
	ErrEmitRange = errors.New("core: emit length out of range")
)

// txToken travels from the client library to the runtime over the
// per-technology TX rings: slot ids, never bytes (§5.3, Fig. 4).
type txToken struct {
	slot    mempool.SlotID
	msgLen  int // INSANE header + payload
	channel uint32
	class   uint8
	timing  qos.Timing
	seq     uint32
	src     *SourceHandle
	vtime   timebase.VTime
	bd      fabric.Breakdown
	// ten is the emitting session's tenant (nil = default): the poller
	// uncharges the in-flight TX token and tags the packet with it.
	ten *tenant
	// noTel opts the message out of the latency histograms (stream-level
	// telemetry opt-out; counters still run).
	noTel bool
}

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

// txRingDepth bounds each per-technology session TX ring.
const txRingDepth = 1024

// rxRingDepth bounds each sink RX ring.
const rxRingDepth = 1024

// ClientConn is one application session with the local runtime
// (init_session in the paper's API, Fig. 2).
//
//insane:shared
type ClientConn struct {
	rt *Runtime      //insane:guardedby immutable after=ConnectTenant
	id mempool.Owner //insane:guardedby immutable after=ConnectTenant
	// ten is the session's tenant binding, fixed at ConnectTenant (nil =
	// the default tenant: no quotas, no per-tenant telemetry).
	ten *tenant //insane:guardedby immutable after=ConnectTenant

	mu      sync.Mutex
	lanes   map[model.Tech]*txLane   //insane:guardedby mu=mu
	streams map[uint64]*StreamHandle //insane:guardedby mu=mu
	closed  bool                     //insane:guardedby mu=mu
}

// Tenant returns the session's tenant name ("" for the default tenant).
func (c *ClientConn) Tenant() string {
	if c.ten == nil {
		return ""
	}
	return c.ten.name
}

// Owner returns the session's memory-pool owner id.
func (c *ClientConn) Owner() mempool.Owner { return c.id }

// lane returns (creating if needed) the session's TX lane toward the
// polling thread of the given technology, registering the caller as one
// more producer. The first producer on a single-poller technology gets
// the cheap SPSC ring; a second producer promotes the lane to MPMC.
func (c *ClientConn) lane(tech model.Tech) (*txLane, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if l, ok := c.lanes[tech]; ok {
		l.producers++
		if l.producers > 1 {
			if err := l.promoteLocked(); err != nil {
				return nil, err
			}
		}
		// Promotion adds a ring: invalidate the cached TX topology.
		c.rt.topoEpoch.Add(1)
		return l, nil
	}
	// SPSC is provable only when exactly one polling thread consumes this
	// technology (SharedPoller or the default one-poller-per-plugin
	// mapping) and this first source stays the lane's only producer.
	st := c.rt.techs[tech]
	l, err := newTxLane(st != nil && len(st.pollers) == 1)
	if err != nil {
		return nil, err
	}
	l.producers = 1
	c.lanes[tech] = l
	// New lane: invalidate the pollers' cached TX topology.
	c.rt.topoEpoch.Add(1)
	return l, nil
}

// OpenStream maps the quality options to a technology available on this
// host and returns the stream handle (create_stream).
func (c *ClientConn) OpenStream(opts qos.Options) (*StreamHandle, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()

	// Tenant class ceiling: a tenant may not claim a higher 802.1Qbv
	// class than declared for it — clamp and warn, mirroring the QoS
	// mapper's fallback idiom rather than failing the stream.
	if t := c.ten; t != nil && t.spec.MaxClass != 0 && opts.Class > t.spec.MaxClass {
		c.rt.warnf("stream: tenant %q requested class %d above its ceiling %d; clamping", t.name, opts.Class, t.spec.MaxClass)
		opts.Class = t.spec.MaxClass
	}

	tech, fellBack := qos.Map(opts, c.rt.EffectiveCaps())
	if fellBack {
		c.rt.warnf("stream: acceleration requested (%s) but no accelerated technology available; falling back to %s", opts, tech)
	}
	if _, ok := c.rt.techs[tech]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDatapath, tech)
	}
	h := &StreamHandle{
		conn:     c,
		id:       c.rt.nextStreamID.Add(1),
		opts:     opts,
		tech:     tech,
		fellBack: fellBack,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.streams[h.id] = h
	return h, nil
}

// Close tears the session down gracefully: pending emissions are flushed,
// all streams close, and any slot still borrowed by the session is
// reclaimed (the crash/migration backstop).
func (c *ClientConn) Close() error {
	c.flush(200 * time.Millisecond)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	streams := make([]*StreamHandle, 0, len(c.streams))
	for _, s := range c.streams {
		streams = append(streams, s)
	}
	c.streams = map[uint64]*StreamHandle{}
	c.mu.Unlock()

	for _, s := range streams {
		s.close(false)
	}
	c.rt.dropConn(c)
	return nil
}

// flush waits (bounded) until the session's TX rings are drained and
// every polling thread serving them has completed two further passes, so
// emitted messages leave before the session's slots are reclaimed.
func (c *ClientConn) flush(timeout time.Duration) {
	if c.rt.stopped.Load() {
		return // no poller will ever drain; dropConn reclaims the lanes
	}
	deadline := timebase.Wall().Add(timeout)
	for timebase.Wall().Before(deadline) {
		c.mu.Lock()
		empty := true
		for tech, l := range c.lanes {
			if l.queued() > 0 {
				empty = false
				c.rt.techs[tech].ring(telemetry.CtrPollerWakesTX)
			}
		}
		c.mu.Unlock()
		if empty {
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	c.waitPollerPasses(2, deadline)
}

// waitPollerPasses blocks until every polling thread serving one of the
// session's TX lanes — the only pollers that hold a view of them —
// advances by at least n iterations (or the deadline passes), ringing
// the ones still short: a parked poller makes no passes on its own.
func (c *ClientConn) waitPollerPasses(n uint64, deadline time.Time) {
	var pollers []*poller
	c.mu.Lock()
	for tech := range c.lanes {
		pollers = append(pollers, c.rt.techs[tech].pollers...)
	}
	c.mu.Unlock()
	start := make([]uint64, len(pollers))
	for i, p := range pollers {
		start[i] = p.loops.Load()
	}
	for timebase.Wall().Before(deadline) {
		if c.rt.stopped.Load() {
			return
		}
		done := true
		for i, p := range pollers {
			if p.loops.Load() < start[i]+n {
				done = false
				p.ring(telemetry.CtrPollerWakesTX)
			}
		}
		if done {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// StreamHandle is an open stream: a QoS contract mapped to a technology.
//
//insane:shared
type StreamHandle struct {
	conn     *ClientConn //insane:guardedby immutable after=OpenStream
	id       uint64      //insane:guardedby immutable after=OpenStream
	opts     qos.Options //insane:guardedby immutable after=OpenStream
	tech     model.Tech  //insane:guardedby immutable after=OpenStream
	fellBack bool        //insane:guardedby immutable after=OpenStream

	mu      sync.Mutex
	sources []*SourceHandle //insane:guardedby mu=mu
	sinks   []*SinkHandle   //insane:guardedby mu=mu
	closed  bool            //insane:guardedby mu=mu
}

// Tech returns the technology the QoS mapper chose for this stream.
func (h *StreamHandle) Tech() model.Tech { return h.tech }

// FellBack reports whether the mapper had to disregard the acceleration
// hint (the user-visible warning of §5.2).
func (h *StreamHandle) FellBack() bool { return h.fellBack }

// Options returns the stream's QoS options.
func (h *StreamHandle) Options() qos.Options { return h.opts }

// Close closes the stream and everything opened within it.
func (h *StreamHandle) Close() { h.close(true) }

func (h *StreamHandle) close(detach bool) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	sources := append([]*SourceHandle(nil), h.sources...)
	sinks := append([]*SinkHandle(nil), h.sinks...)
	h.sources, h.sinks = nil, nil
	h.mu.Unlock()

	for _, s := range sources {
		s.Close()
	}
	for _, k := range sinks {
		k.Close()
	}
	if detach {
		h.conn.mu.Lock()
		delete(h.conn.streams, h.id)
		h.conn.mu.Unlock()
	}
}

// CreateSource opens a data producer on a channel of this stream.
//
// A source is owned by one emitting goroutine at a time: interleaved
// Emits from several goroutines must be externally serialized (the same
// contract the paper's per-session queues assume, and what lets the
// runtime elect a wait-free SPSC TX lane for single-source sessions —
// open one source per goroutine instead of sharing one).
func (h *StreamHandle) CreateSource(channel uint32) (*SourceHandle, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	lane, err := h.conn.lane(h.tech)
	if err != nil {
		return nil, err
	}
	// If registering this source promoted the lane, wait for the polling
	// thread to drain the SPSC remnant before handing the source out:
	// push() holds producers back while the remnant is non-empty (to keep
	// per-producer FIFO across the promotion), and absorbing that window
	// here — a cold path — keeps it invisible to emitters. The loop is
	// counter-bounded so a stopping runtime cannot wedge us; on timeout
	// the first emits simply see ErrBusy, the normal backpressure signal.
	if lane.spsc != nil && !lane.single() {
		for i := 0; i < 2000 && lane.spsc.Len() > 0; i++ {
			time.Sleep(50 * time.Microsecond)
		}
	}
	s := &SourceHandle{
		stream:  h,
		channel: channel,
		lane:    lane,
		shard:   h.conn.rt.tel.AssignShard(),
		noTel:   h.opts.NoTelemetry,
		rtc:     h.opts.RunToCompletion,
		ten:     h.conn.ten,
		st:      h.conn.rt.techs[h.tech],
	}
	if s.rtc && h.opts.Timing == qos.TimingSensitive {
		// Cache the stream technology's time-aware shaper so the RTC
		// admission check can test the 802.1Qbv gate lock-free.
		s.gate = s.st.tas
	}
	h.sources = append(h.sources, s)
	return s, nil
}

// CreateSink opens a data consumer on a channel of this stream and
// announces the subscription to the peer runtimes.
func (h *StreamHandle) CreateSink(channel uint32) (*SinkHandle, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	h.mu.Unlock()

	ring, err := ringbuf.NewMPMC[rxToken](rxRingDepth)
	if err != nil {
		return nil, err
	}
	k := &SinkHandle{
		stream:  h,
		channel: channel,
		ring:    ring,
		notify:  make(chan struct{}, 1),
		shard:   h.conn.rt.tel.AssignShard(),
		noTel:   h.opts.NoTelemetry,
		ten:     h.conn.ten,
	}
	if err := h.conn.rt.registerSink(k); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		h.conn.rt.unregisterSink(k)
		return nil, ErrClosed
	}
	h.sinks = append(h.sinks, k)
	return k, nil
}

// Buffer is a zero-copy send buffer borrowed from the runtime memory
// manager (get_buffer). The application writes into Payload and must not
// touch it again after Emit (no after-write protection, §5.1).
type Buffer struct {
	// Slot identifies the backing memory slot.
	Slot mempool.SlotID
	// Payload is the writable application area of the slot.
	Payload []byte
	// VTime seeds the packet's virtual clock; an echo server copies the
	// request's VTime here so round-trip accounting accumulates.
	VTime timebase.VTime
	// Breakdown seeds the packet's stage accounting, like VTime.
	Breakdown fabric.Breakdown

	buf []byte
}

// Wrapper free lists: the Buffer and Delivery structs handed across the
// API are recycled once ownership returns to the runtime (successful
// Emit / Abort / Release). The ownership contract — enforced by the
// insanevet bufownership rule — already forbids touching a wrapper after
// those calls, which is exactly what makes pooling them safe.
var (
	bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

	deliveryPool = sync.Pool{New: func() any { return new(Delivery) }}
)

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

// outcomeWindow is how many past outcomes a source retains.
const outcomeWindow = 1024

// SourceHandle is a data producer on one channel (create_source).
//
//insane:shared
type SourceHandle struct {
	stream  *StreamHandle //insane:guardedby immutable after=CreateSource
	channel uint32        //insane:guardedby immutable after=CreateSource
	lane    *txLane       //insane:guardedby immutable after=CreateSource
	seq     atomic.Uint32 //insane:guardedby atomic
	closed  atomic.Bool   //insane:guardedby atomic
	// shard is the telemetry stripe Emit records into; assigned
	// round-robin at creation so concurrent publishers spread out.
	shard *telemetry.Shard //insane:guardedby immutable after=CreateSource
	noTel bool             //insane:guardedby immutable after=CreateSource
	// rtc opts Emit into the run-to-completion fast path (DESIGN.md §11).
	rtc bool //insane:guardedby immutable after=CreateSource
	// ten caches the session's tenant binding (nil = default tenant) so
	// the Emit/GetBuffer quota checks skip a pointer chase.
	ten *tenant //insane:guardedby immutable after=CreateSource
	// st is the stream technology's state: Emit rings its pollers.
	st *techState //insane:guardedby immutable after=CreateSource
	// gate is the stream technology's 802.1Qbv shaper, cached only for
	// RTC time-sensitive sources so the admission check is one immutable
	// read, no scheduler lock.
	gate *sched.TAS //insane:guardedby immutable after=CreateSource

	mu       sync.Mutex
	outcomes [outcomeWindow]Outcome //insane:guardedby mu=mu
	haveOut  [outcomeWindow]bool    //insane:guardedby mu=mu
}

// Channel returns the source's channel id.
func (s *SourceHandle) Channel() uint32 { return s.channel }

// GetBuffer borrows a zero-copy buffer able to hold size payload bytes,
// charged against the session tenant's slot budget (mempool.ErrQuota
// when the tenant is at its cap; the public layer maps it to
// ErrTenantQuota).
//
//insane:hotpath
//insane:acquire resource=mem-slot on=nilerr
func (s *SourceHandle) GetBuffer(size int) (*Buffer, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	var budget *mempool.Budget
	if s.ten != nil {
		budget = s.ten.budget
	}
	slot, buf, err := s.stream.conn.rt.mm.GetBudget(MsgHeadroom+size, s.stream.conn.id, budget)
	if err != nil {
		if s.ten != nil && errors.Is(err, mempool.ErrQuota) {
			s.ten.shard.Inc(telemetry.CtrTenantQuotaRejects)
			s.shard.Inc(telemetry.CtrTenantQuotaRejects)
		}
		return nil, err
	}
	b := bufferPool.Get().(*Buffer)
	*b = Buffer{
		Slot:    slot,
		Payload: buf[MsgHeadroom : MsgHeadroom+size],
		buf:     buf,
	}
	return b, nil
}

// Abort returns an unsent buffer to the pool.
//
//insane:hotpath
//insane:release resource=mem-slot
func (s *SourceHandle) Abort(b *Buffer) {
	if b != nil && b.buf != nil {
		_ = s.stream.conn.rt.mm.Release(b.Slot)
		*b = Buffer{}
		bufferPool.Put(b)
	}
}

// Emit hands n payload bytes of the buffer to the runtime for
// transmission (emit_data) and returns the sequence number usable with
// Outcome. Ownership of the buffer passes to the runtime; on
// ErrBackpressure the caller keeps it and may retry.
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
	if s.rtc {
		if s.emitRTC(b, n, seq) {
			return seq, nil
		}
		// A precondition failed (remote subscriber, fanout over budget,
		// closed TSN gate, or a full sink ring): queued path below.
		s.shard.Inc(telemetry.CtrRTCFallbacks)
	}
	st := s.stream
	// Tenant admission: the queued path holds a TX token from here until
	// the poller dispatches (or drops) the message; a tenant at its
	// in-flight cap is rejected before touching the ring. RTC deliveries
	// above never queue, so they bypass the token quota by design.
	if ten := s.ten; ten != nil && !ten.chargeTX() {
		ten.shard.Inc(telemetry.CtrTenantQuotaRejects)
		s.shard.Inc(telemetry.CtrTenantQuotaRejects)
		return 0, ErrTenantQuota
	}
	encodeHeader(b.buf[headroomOffset:], header{
		kind:    kindData,
		channel: s.channel,
		class:   st.opts.Class,
		seq:     seq,
	})
	tok := txToken{
		slot:    b.Slot,
		msgLen:  HeaderLen + n,
		channel: s.channel,
		class:   st.opts.Class,
		timing:  st.opts.Timing,
		seq:     seq,
		src:     s,
		vtime:   b.VTime,
		bd:      b.Breakdown,
		ten:     s.ten,
		noTel:   s.noTel,
	}
	// The IPC hop: the token crosses the client→runtime ring.
	ipc := s.stream.conn.rt.rc.IPCTx
	d := s.stream.conn.rt.tb.Scale(ipc.Class, ipc.Fixed+ipc.Amort)
	tok.vtime = tok.vtime.Add(d)
	tok.bd.Send += d
	if !s.lane.push(tok) {
		// Backpressure: the caller keeps buffer ownership and may retry.
		if ten := s.ten; ten != nil {
			ten.unchargeTX()
			ten.shard.Inc(telemetry.CtrEmitBackpressure)
		}
		s.shard.Inc(telemetry.CtrEmitBackpressure)
		return 0, ErrBackpressure
	}
	// Ownership of the slot moved to the runtime; the wrapper is dead to
	// the caller (bufownership rule) and can be recycled immediately.
	*b = Buffer{}
	bufferPool.Put(b)
	s.shard.Inc(telemetry.CtrEmits)
	s.shard.Add(telemetry.CtrEmitBytes, uint64(n))
	if ten := s.ten; ten != nil {
		ten.shard.Inc(telemetry.CtrEmits)
		ten.shard.Add(telemetry.CtrEmitBytes, uint64(n))
	}
	s.st.ring(telemetry.CtrPollerWakesTX)
	return seq, nil
}

// headroomOffset is where the INSANE header starts inside a slot.
const headroomOffset = MsgHeadroom - HeaderLen

// recordOutcome stores the fate of an emitted message.
func (s *SourceHandle) recordOutcome(o Outcome) {
	//lint:ignore insanevet/hotpathcheck outcome-window lock; bounded array write, never held across I/O
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := int(o.Seq) % outcomeWindow
	s.outcomes[idx] = o
	s.haveOut[idx] = true
}

// Outcome retrieves the result of a past Emit, if still retained
// (check_emit_outcome).
func (s *SourceHandle) Outcome(seq uint32) (Outcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := int(seq) % outcomeWindow
	if !s.haveOut[idx] || s.outcomes[idx].Seq != seq {
		return Outcome{}, false
	}
	return s.outcomes[idx], true
}

// Close closes the source (close_source).
func (s *SourceHandle) Close() { s.closed.Store(true) }

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
