// Control path: sessions, streams and the creation of their sources and
// sinks. Nothing here runs per message.

package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/ringbuf"
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
	// ErrCanceled is returned by blocking consume when the cancel channel
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

// ClientConn is one application session with the local runtime
// (init_session in the paper's API, Fig. 2).
//
//insane:shared
type ClientConn struct {
	rt *Runtime      //insane:guardedby immutable after=ConnectTenant
	id mempool.Owner //insane:guardedby immutable after=ConnectTenant
	// ten is the session's tenant binding, fixed at ConnectTenant.
	ten *tenant //insane:guardedby immutable after=ConnectTenant

	// lanes are the session's TX lanes, one per technology it has a source
	// on. They are part of who is connected, so the runtime's lock owns
	// them and every new one is published.
	lanes laneSet //insane:guardedby mu=Runtime.mu

	mu      sync.Mutex
	streams map[uint64]*StreamHandle //insane:guardedby mu=mu
	closed  bool                     //insane:guardedby mu=mu
}

// Tenant returns the session's tenant name ("" for the default tenant).
func (c *ClientConn) Tenant() string { return c.ten.name }

// lane returns (creating if needed) the session's TX lane toward the
// polling threads of the given technology. Every source the session opens
// on the technology shares it.
func (c *ClientConn) lane(tech model.Tech) (*txLane, error) {
	r := c.rt
	r.mu.Lock()
	defer r.mu.Unlock()
	if !slices.Contains(r.conns, c) {
		return nil, ErrClosed // detached: nothing would ever drain the lane
	}
	if l := c.lanes[tech]; l != nil {
		return l, nil
	}
	l, err := newTxLane()
	if err != nil {
		return nil, err
	}
	c.lanes[tech] = l
	r.publishLocked()
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
	if t := c.ten; t.spec.MaxClass != 0 && opts.Class > t.spec.MaxClass {
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

// Close tears the session down without waiting: all streams close, the
// pollers still deliver what its lanes hold (dropConn), and any slot it
// still borrows is reclaimed (the crash/migration backstop). Close must come
// after the session's own GetBuffer and Emit calls have returned: the
// single-owner rule CreateSource states.
func (c *ClientConn) Close() error {
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
// contract the paper's per-session queues assume, and what makes the
// sequence numbers and the per-source FIFO order meaningful — open one
// source per goroutine instead of sharing one).
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
	s := &SourceHandle{
		stream:   h,
		channel:  channel,
		lane:     lane,
		shard:    h.conn.ten.assignShard(),
		rtc:      h.opts.RunToCompletion,
		ten:      h.conn.ten,
		st:       h.conn.rt.techs[h.tech],
		outcomes: make([]outcomeEntry, outcomeWindow),
	}
	if s.rtc && h.opts.Timing == qos.TimingSensitive {
		// Cache the stream technology's egress scheduler so the RTC
		// admission check can test the 802.1Qbv gate lock-free.
		s.gate = s.st.egress
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

	ring, err := ringbuf.NewMPMC[sinkDesc](rxRingDepth)
	if err != nil {
		return nil, err
	}
	k := &SinkHandle{
		stream:  h,
		channel: channel,
		ring:    ring,
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		mm:      h.conn.rt.mm,
		costs:   h.conn.rt.deliverCost,
		shard:   h.conn.ten.assignShard(),
		noTel:   h.opts.NoTelemetry,
	}
	if err := h.conn.rt.registerSink(k); err != nil {
		// The handle goes to nobody: take the sink back out of the view,
		// withdraw it from the peers the announcement did reach, and let go
		// of whatever was delivered to it meanwhile.
		k.Close()
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		k.Close()
		return nil, ErrClosed
	}
	h.sinks = append(h.sinks, k)
	return k, nil
}
