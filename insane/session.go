package insane

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/core"
	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/qos"
)

// Datapath is the acceleration QoS policy of a stream (§5.2).
type Datapath int

// Acceleration levels: Slow maps to kernel networking, Fast requests an
// accelerated technology.
const (
	Slow Datapath = iota
	Fast
)

// Resources is the resource-consumption QoS policy.
type Resources int

// Resource-consumption levels: WhateverItTakes permits busy-polling
// technologies like DPDK; Frugal avoids dedicating spinning cores.
const (
	WhateverItTakes Resources = iota
	Frugal
)

// Timing is the time-sensitiveness QoS policy.
type Timing int

// Time-sensitiveness levels: BestEffort uses the FIFO scheduler;
// TimeSensitive uses the IEEE 802.1Qbv time-aware scheduler.
const (
	BestEffort Timing = iota
	TimeSensitive
)

// Options is the QoS requirement set of a stream (create_stream).
type Options struct {
	Datapath  Datapath
	Resources Resources
	Timing    Timing
	// Class is the 802.1Qbv traffic class (0-7) of time-sensitive
	// streams; higher is more critical.
	Class uint8
	// Mapper overrides the default mapping strategy (§5.2: streams map
	// "according to a user-configured mapping strategy"). It receives
	// the technology names available on the node (as in
	// Node.Technologies()) and must return one of them; returning ""
	// delegates back to the default strategy.
	Mapper func(available []string) string
	// DisableTelemetry opts the stream's messages out of the per-stage
	// latency histograms (Node.Metrics, /metrics); throughput counters
	// always run. See WithTelemetry.
	DisableTelemetry bool
	// RunToCompletion opts the stream's sources into the synchronous
	// local fast path (DESIGN.md §11): when every subscriber of the
	// emitted channel is local, the fanout is small, and the stream's
	// TSN gate (if any) is open, Emit delivers straight into the sink
	// rings on the calling goroutine instead of queueing for a polling
	// thread. Emits that fail a precondition silently take the queued
	// path. Requires the application's single-goroutine-per-source emit
	// discipline (already the Source contract). See WithRunToCompletion.
	RunToCompletion bool
}

// toQoS converts the public options to the internal policy type.
func (o Options) toQoS() qos.Options {
	out := qos.Options{
		Class:           o.Class,
		NoTelemetry:     o.DisableTelemetry,
		RunToCompletion: o.RunToCompletion,
	}
	if o.Mapper != nil {
		userPick := o.Mapper
		out.Mapper = func(inner qos.Options, caps datapath.Caps) (model.Tech, bool) {
			names := make([]string, 0, 4)
			for _, tech := range caps.List() {
				names = append(names, tech.String())
			}
			pick := userPick(names)
			if pick == "" {
				return qos.DefaultMap(inner, caps)
			}
			for _, tech := range caps.List() {
				if tech.String() == pick {
					// The hint was honored only if it matches the
					// acceleration request; picking the kernel for a
					// fast stream is still a (deliberate) fallback.
					fb := inner.Datapath == qos.DatapathFast && tech == model.TechKernelUDP
					return tech, fb
				}
			}
			// Unknown name: best-effort default, like any other hint.
			return qos.DefaultMap(inner, caps)
		}
	}
	if o.Datapath == Fast {
		out.Datapath = qos.DatapathFast
	} else {
		out.Datapath = qos.DatapathSlow
	}
	if o.Resources == Frugal {
		out.Resources = qos.ResourcesConstrained
	} else {
		out.Resources = qos.ResourcesUnconstrained
	}
	if o.Timing == TimeSensitive {
		out.Timing = qos.TimingSensitive
	} else {
		out.Timing = qos.TimingBestEffort
	}
	return out
}

// Session is an application's connection to the local INSANE runtime
// (init_session / close_session).
//
//insane:shared
type Session struct {
	conn   *core.ClientConn //insane:guardedby immutable after=InitSession
	closed atomic.Bool      //insane:guardedby atomic

	mu    sync.Mutex
	sinks []*Sink //insane:guardedby mu=mu
}

// InitSession opens a session with the node's runtime. Options bind the
// session to a tenant (WithTenant); with none it runs under the default
// tenant, exactly as before options existed.
func (n *Node) InitSession(opts ...SessionOption) (*Session, error) {
	var sc sessionConfig
	for _, opt := range opts {
		opt(&sc)
	}
	conn, err := n.rt.ConnectTenant(string(sc.tenant))
	if err != nil {
		return nil, publicErr(err)
	}
	return &Session{conn: conn}, nil
}

// Tenant returns the tenant the session is bound to ("" = default).
func (s *Session) Tenant() TenantID { return TenantID(s.conn.Tenant()) }

// Close ends the session: every stream, source and sink opened through it
// is closed and all borrowed memory returns to the runtime. Messages
// already emitted are still delivered; Close does not wait for them. Call
// it after the session's own GetBuffer and Emit calls have returned.
// Close is idempotent — repeated calls return nil.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	sinks := s.sinks
	s.sinks = nil
	s.mu.Unlock()
	for _, k := range sinks {
		k.stopDispatch()
	}
	return publicErr(s.conn.Close())
}

// Stream is an open stream: a set of quality requirements shared by its
// channels (Fig. 1).
//
//insane:shared
type Stream struct {
	sess *Session           //insane:guardedby immutable after=CreateStreamOpts
	h    *core.StreamHandle //insane:guardedby immutable after=CreateStreamOpts
}

// Technology names the network technology the stream was mapped to.
func (st *Stream) Technology() string { return st.h.Tech().String() }

// FellBack reports that acceleration was requested but unavailable, so
// the stream runs on the kernel stack (the §5.2 warning).
func (st *Stream) FellBack() bool { return st.h.FellBack() }

// Close closes the stream (close_stream).
func (st *Stream) Close() { st.h.Close() }

// CreateSource opens a data producer on a channel (create_source).
func (st *Stream) CreateSource(channel int) (*Source, error) {
	h, err := st.h.CreateSource(uint32(channel))
	if err != nil {
		return nil, publicErr(err)
	}
	return &Source{h: h}, nil
}

// DataCallback handles one delivery; the library releases the message
// when the callback returns, so callbacks must copy anything they keep.
type DataCallback func(m *Message)

// CreateSink opens a data consumer on a channel (create_sink). With a
// non-nil callback, the library dispatches every delivery to it from a
// dedicated goroutine; otherwise the application calls ConsumeContext.
func (st *Stream) CreateSink(channel int, cb DataCallback) (*Sink, error) {
	h, err := st.h.CreateSink(uint32(channel))
	if err != nil {
		return nil, publicErr(err)
	}
	k := &Sink{h: h}
	if cb != nil {
		k.stop = make(chan struct{})
		k.done = make(chan struct{})
		//insane:goroutine owner=Sink stop=Close
		go k.dispatch(cb)
	}
	st.sess.mu.Lock()
	st.sess.sinks = append(st.sess.sinks, k)
	st.sess.mu.Unlock()
	return k, nil
}

// Buffer is a zero-copy send buffer (get_buffer). Write the payload into
// Payload, then Emit; never touch the buffer afterwards.
type Buffer struct {
	// Payload is the writable application area.
	Payload []byte
	inner   core.Buffer
}

// Wrapper free lists: the Buffer and Message structs handed across the
// API are recycled when ownership returns to the library (successful
// Emit / Abort / Release), which the API contract — never touch a buffer
// after Emit, a message after Release, enforced by the insanevet
// bufownership rule — makes safe. They are the only pooled wrappers: each
// holds the runtime's own struct by value and the core calls fill it in
// place, so an API object costs one pool round trip.
var (
	bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

	messagePool = sync.Pool{New: func() any { return new(Message) }}
)

// Source is a data producer on one channel.
//
//insane:shared
type Source struct {
	h *core.SourceHandle //insane:guardedby immutable after=CreateSource
}

// Channel returns the source's channel id.
func (s *Source) Channel() int { return int(s.h.Channel()) }

// GetBuffer borrows a buffer able to hold size payload bytes from the
// runtime memory manager (get_buffer).
//
//insane:hotpath
//insane:acquire resource=mem-slot on=nilerr
func (s *Source) GetBuffer(size int) (*Buffer, error) {
	b := bufferPool.Get().(*Buffer)
	if err := s.h.GetBuffer(&b.inner, size); err != nil {
		bufferPool.Put(b)
		return nil, publicErr(err)
	}
	b.Payload = b.inner.Payload
	return b, nil
}

// Abort returns an unsent buffer to the pool.
//
//insane:hotpath
//insane:release resource=mem-slot
func (s *Source) Abort(b *Buffer) {
	if b != nil && b.inner.Payload != nil {
		s.h.Abort(&b.inner)
		b.Payload = nil
		bufferPool.Put(b)
	}
}

// AddProcessing charges application-level processing time to the
// message's virtual clock; layered middleware (e.g. Lunar MoM) uses it to
// account its own overhead in the latency figures.
func (b *Buffer) AddProcessing(d time.Duration) {
	b.inner.Breakdown.Processing += d
}

// ContinueFrom seeds the buffer's virtual clock from a received message,
// so latency accounting accumulates across an echo (used by the
// ping-pong benchmarks).
func (b *Buffer) ContinueFrom(m *Message) {
	b.inner.Breakdown = m.d.Breakdown
}

// Emit hands the first n payload bytes to the runtime for asynchronous
// transmission (emit_data) and returns a token for EmitOutcome.
//
//insane:hotpath
//insane:transfer resource=mem-slot on=nilerr
func (s *Source) Emit(b *Buffer, n int) (uint32, error) {
	if b == nil || b.inner.Payload == nil {
		return 0, ErrBufferConsumed
	}
	seq, err := s.h.Emit(&b.inner, n)
	if err != nil {
		return 0, publicErr(err)
	}
	// Ownership moved to the runtime, which cleared inner; recycle the
	// dead wrapper.
	b.Payload = nil
	bufferPool.Put(b)
	return seq, nil
}

// Outcome reports the fate of an emitted message (check_emit_outcome).
type Outcome struct {
	// LocalSinks and RemotePeers count where the message went.
	LocalSinks, RemotePeers int
	// Err is non-nil if the send failed.
	Err error
}

// EmitOutcome retrieves the result of a past Emit, if available yet.
func (s *Source) EmitOutcome(token uint32) (Outcome, bool) {
	o, ok := s.h.Outcome(token)
	if !ok {
		return Outcome{}, false
	}
	return Outcome{LocalSinks: o.LocalSinks, RemotePeers: o.RemotePeers, Err: o.Err}, true
}

// Close closes the source (close_source).
func (s *Source) Close() { s.h.Close() }

// Message is one received delivery, borrowed zero-copy from the runtime
// pools (consume_data): Release it as soon as processing is done.
type Message struct {
	// Payload is a read-only view into the shared memory slot.
	Payload []byte
	// Channel is the channel the message arrived on.
	Channel int
	// Latency is the accumulated one-way virtual latency: the sum of
	// Stages.
	Latency time.Duration
	d       core.Delivery
}

// Stages is a message latency split by pipeline stage (Fig. 6): sender
// middleware, wire, receiver middleware, and application processing.
type Stages struct {
	Send, Network, Recv, Processing time.Duration
}

// Stages returns the latency breakdown as a struct, convenient to embed
// in higher-layer metadata (Lunar reports it per delivery).
func (m *Message) Stages() Stages {
	bd := m.d.Breakdown
	return Stages{Send: bd.Send, Network: bd.Network, Recv: bd.Recv, Processing: bd.Processing}
}

// Sink is a data consumer on one channel.
//
//insane:shared
type Sink struct {
	h *core.SinkHandle //insane:guardedby immutable after=CreateSink
	// stop/done are nil for callback-free sinks and never reassigned
	// after CreateSink; stopOnce makes closing stop exactly-once even
	// when Session.Close and Sink.Close race (both call stopDispatch).
	stop     chan struct{} //insane:guardedby immutable after=CreateSink
	done     chan struct{} //insane:guardedby immutable after=CreateSink
	stopOnce sync.Once
}

// Channel returns the sink's channel id.
func (k *Sink) Channel() int { return int(k.h.Channel()) }

// Available returns how many deliveries are queued (data_available).
func (k *Sink) Available() int { return k.h.Available() }

// ConsumeContext pops one delivery, waiting until data arrives, the
// context's deadline passes or the context is canceled (the context's
// error is returned), or the sink or its session is closed (ErrClosed). It
// is the one consumption call: a non-blocking poll is Available() > 0
// before it, a timeout is a context deadline.
//
// The sink is tried first: a message that is already queued is returned
// without a look at the context — no Deadline, no Done, no Err — so the
// context decides only a call that would otherwise wait. A call on an
// empty sink with an expired or canceled context returns the context's
// error at once.
//
//insane:hotpath allow=block
//insane:acquire resource=mem-slot on=nilerr
func (k *Sink) ConsumeContext(ctx context.Context) (*Message, error) {
	m := messagePool.Get().(*Message)
	err := k.h.TryConsume(&m.d)
	if err == nil {
		return k.filled(m), nil
	}
	if err == core.ErrNoData {
		err = k.await(ctx, m)
		if err == nil {
			return k.filled(m), nil
		}
	}
	messagePool.Put(m)
	return nil, publicErr(err)
}

// await is ConsumeContext on an empty sink: it blocks until a delivery
// lands in m.d or the context or a close ends the wait. The context's Done
// is the only signal handed down: a deadline context already owns a timer,
// and the wait does not arm a second one beside it.
//
//insane:hotpath allow=block
//insane:acquire resource=mem-slot on=nilerr
func (k *Sink) await(ctx context.Context, m *Message) error {
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= 0 {
		// Expired, even if the context's own timer has yet to fire and
		// flip Err.
		if err := ctx.Err(); err != nil {
			return err
		}
		return context.DeadlineExceeded
	}
	err := k.h.Consume(&m.d, ctx.Done())
	if err == core.ErrCanceled {
		return ctx.Err() // non-nil once Done is closed
	}
	return err
}

// filled publishes the delivery m.d now holds through the public fields.
func (k *Sink) filled(m *Message) *Message {
	m.Payload = m.d.Payload
	m.Channel = k.Channel()
	m.Latency = m.d.Breakdown.Total()
	return m
}

// Release returns a consumed message's memory to the runtime
// (release_buffer).
//
//insane:hotpath
//insane:release resource=mem-slot
func (k *Sink) Release(m *Message) {
	if m != nil && m.d.Payload != nil {
		k.h.Release(&m.d)
		m.Payload = nil
		messagePool.Put(m)
	}
}

// Close closes the sink (close_sink), stopping its callback dispatcher.
func (k *Sink) Close() {
	k.stopDispatch()
	k.h.Close()
}

// stopDispatch terminates the callback goroutine, if any. Safe for
// concurrent callers: Session.Close and Sink.Close may race here, and
// the old check-then-close (plus a k.stop = nil write) let two callers
// both observe an open channel and double-close it, or let one read
// stop while the other nil-ed it. sync.Once closes exactly once; both
// callers then park on done until the dispatcher drains.
func (k *Sink) stopDispatch() {
	if k.stop == nil {
		return
	}
	k.stopOnce.Do(func() { close(k.stop) })
	<-k.done
}

// dispatch is the callback pump: it hands every delivery to the callback,
// releasing the message afterwards, until the dispatcher is stopped or
// the sink closes. Stop is looked at before every delivery, so closing a
// sink under steady traffic does not wait for the traffic to pause.
func (k *Sink) dispatch(cb DataCallback) {
	defer close(k.done)
	for {
		select {
		case <-k.stop:
			return
		default:
		}
		m := messagePool.Get().(*Message)
		if err := k.h.Consume(&m.d, k.stop); err != nil {
			messagePool.Put(m)
			return
		}
		cb(k.filled(m))
		k.Release(m)
	}
}
