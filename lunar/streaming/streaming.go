// Package streaming implements Lunar Streaming, the paper's real-time
// data streaming framework built on the INSANE API (§7.2): a server
// fragments application frames (e.g. raw camera images) into
// jumbo-frame-sized chunks and emits them on an INSANE channel; clients
// reassemble the fragments and hand complete frames to the application.
//
// Only fragmentation is implemented — the paper explicitly leaves
// compression out of scope — and delivery is best effort: a frame missing
// any fragment is dropped, consistent with INSANE's QoS philosophy (§5.2)
// that reliability is the application's business.
package streaming

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"github.com/insane-mw/insane/insane"
)

// fragHeaderLen is the per-fragment framing: frame id, fragment index,
// fragment count, total frame length.
const fragHeaderLen = 16

// MaxFragPayload is the data carried per fragment: sized so that a
// fragment plus its headers fits one jumbo frame slot.
const MaxFragPayload = 8900

// maxFrameLen is the largest frame a server sends and a client assembles.
const maxFrameLen = 1 << 30

// maxPending bounds the frames a client keeps under reassembly. A server
// sends its frames one after the other, so more than a handful pending
// means the older ones lost a fragment and will never complete.
const maxPending = 16

// fragCount is how many fragments carry a frame of total bytes: the
// server's rule, which the client holds every fragment to.
func fragCount(total int) int {
	return max(1, (total+MaxFragPayload-1)/MaxFragPayload)
}

// Errors of the streaming framework.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("streaming: closed")
	// ErrFrameTooLarge guards the 32-bit fragment arithmetic.
	ErrFrameTooLarge = errors.New("streaming: frame exceeds 1 GiB")
)

// FrameSource supplies frames to a streaming server: the two-method
// interface the paper prescribes (get_frame / wait_next).
type FrameSource interface {
	// GetFrame returns the next frame to stream.
	GetFrame() ([]byte, error)
	// WaitNext blocks until another frame is due and reports whether
	// streaming should continue.
	WaitNext() bool
}

// StreamChannel maps a stream name to its INSANE channel id.
func StreamChannel(name string) int {
	h := fnv.New32a()
	h.Write([]byte("lunar-streaming/"))
	h.Write([]byte(name))
	return int(h.Sum32()&0x7FFFFFFF | 0x2000)
}

// Server is the sender side (lnr_s_open_server).
//
//insane:shared
type Server struct {
	sess    *insane.Session //insane:guardedby immutable after=OpenServer
	stream  *insane.Stream  //insane:guardedby immutable after=OpenServer
	src     *insane.Source  //insane:guardedby immutable after=OpenServer
	mu      sync.Mutex
	frameID uint32 //insane:guardedby mu=mu
	closed  bool   //insane:guardedby mu=mu
}

// OpenServer opens the server side of a named stream on a node with the
// given QoS (Lunar fast streams over DPDK, Lunar slow over kernel UDP).
func OpenServer(node *insane.Node, name string, opts insane.Options) (*Server, error) {
	sess, err := node.InitSession()
	if err != nil {
		return nil, err
	}
	stream, err := sess.CreateStreamOpts(insane.WithOptions(opts))
	if err != nil {
		sess.Close()
		return nil, err
	}
	src, err := stream.CreateSource(StreamChannel(name))
	if err != nil {
		sess.Close()
		return nil, err
	}
	return &Server{sess: sess, stream: stream, src: src}, nil
}

// Technology names the mapped network technology.
func (s *Server) Technology() string { return s.stream.Technology() }

// SendFrame fragments one frame and emits every fragment (step ii of
// lnr_s_loop). It returns the number of fragments sent.
func (s *Server) SendFrame(frame []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if len(frame) > maxFrameLen {
		return 0, ErrFrameTooLarge
	}
	s.frameID++
	id := s.frameID
	count := fragCount(len(frame))
	for idx := 0; idx < count; idx++ {
		lo := idx * MaxFragPayload
		hi := lo + MaxFragPayload
		if hi > len(frame) {
			hi = len(frame)
		}
		chunk := frame[lo:hi]
		var buf *insane.Buffer
		var err error
		for {
			buf, err = s.src.GetBuffer(fragHeaderLen + len(chunk))
			if !errors.Is(err, insane.ErrNoBuffers) {
				break
			}
			// Pools drained: wait for the receiver to recycle slots.
			time.Sleep(5 * time.Microsecond)
		}
		if err != nil {
			return idx, fmt.Errorf("streaming: fragment %d/%d: %w", idx, count, err)
		}
		binary.BigEndian.PutUint32(buf.Payload[0:4], id)
		binary.BigEndian.PutUint32(buf.Payload[4:8], uint32(idx))
		binary.BigEndian.PutUint32(buf.Payload[8:12], uint32(count))
		binary.BigEndian.PutUint32(buf.Payload[12:16], uint32(len(frame)))
		copy(buf.Payload[fragHeaderLen:], chunk)
		for {
			_, err = s.src.Emit(buf, fragHeaderLen+len(chunk))
			if !errors.Is(err, insane.ErrBackpressure) {
				break
			}
			// The runtime is draining as fast as the datapath allows:
			// yield and retry (flow control by slot recycling).
			time.Sleep(5 * time.Microsecond)
		}
		if err != nil {
			s.src.Abort(buf)
			return idx, err
		}
	}
	return count, nil
}

// Loop runs the paper's lnr_s_loop: request a frame, fragment and send
// it, wait for the next, until the source ends or an error occurs.
func (s *Server) Loop(src FrameSource) error {
	for {
		frame, err := src.GetFrame()
		if err != nil {
			return err
		}
		if _, err := s.SendFrame(frame); err != nil {
			return err
		}
		if !src.WaitNext() {
			return nil
		}
	}
}

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.sess.Close()
}

// Frame is one reassembled frame delivered to a client.
type Frame struct {
	// ID is the server-assigned frame number.
	ID uint32
	// Data is the reassembled frame content (owned by the receiver).
	Data []byte
	// Latency is the end-to-end virtual time from first emission to
	// reassembly completion.
	Latency time.Duration
	// Stages splits the latency of the slowest fragment (the one that
	// completed the frame) by pipeline stage.
	Stages insane.Stages
	// Fragments is how many fragments composed the frame.
	Fragments int
}

// Client is the receiver side (lnr_s_connect).
//
//insane:shared
type Client struct {
	sess   *insane.Session //insane:guardedby immutable after=Connect
	stream *insane.Stream  //insane:guardedby immutable after=Connect
	sink   *insane.Sink    //insane:guardedby immutable after=Connect

	mu sync.Mutex
	// building holds the frames under reassembly, oldest first and at most
	// maxPending of them: the oldest is evicted, and counted in dropped,
	// to make room for a new one.
	building []*assembly //insane:guardedby mu=mu
	ready    []Frame     //insane:guardedby mu=mu
	// notify is created once in Connect and only ever sent to / received
	// from afterwards (channel ops are internally synchronized), so it is
	// deliberately not under mu: Receive blocks on it after unlocking.
	notify  chan struct{} //insane:guardedby immutable after=Connect
	dropped uint64        //insane:guardedby mu=mu
	closed  bool          //insane:guardedby mu=mu
}

// assembly is a frame being reassembled: len(data) and len(seen) are the
// total and count of the fragment that opened it, which every later
// fragment of the frame must repeat.
type assembly struct {
	id      uint32
	data    []byte
	seen    []bool
	missing int
	latency time.Duration
	stages  insane.Stages
}

// Connect opens the client side of a named stream.
func Connect(node *insane.Node, name string, opts insane.Options) (*Client, error) {
	sess, err := node.InitSession()
	if err != nil {
		return nil, err
	}
	stream, err := sess.CreateStreamOpts(insane.WithOptions(opts))
	if err != nil {
		sess.Close()
		return nil, err
	}
	c := &Client{
		sess:   sess,
		stream: stream,
		notify: make(chan struct{}, 1),
	}
	sink, err := stream.CreateSink(StreamChannel(name), c.onFragment)
	if err != nil {
		sess.Close()
		return nil, err
	}
	c.sink = sink
	return c, nil
}

// onFragment integrates one received fragment, completing frames as the
// last fragment lands. The four header words are a peer's bytes: a fragment
// is used only if they agree with each other by the server's own rule
// (fragCount, every chunk full but the last) and with the assembly the
// fragment joins, so nothing below indexes or allocates by an unchecked
// word. The payload copy is the reassembly copy the paper identifies as
// unavoidable without RDMA (§8).
func (c *Client) onFragment(m *insane.Message) {
	if len(m.Payload) < fragHeaderLen {
		return
	}
	id := binary.BigEndian.Uint32(m.Payload[0:4])
	idx := binary.BigEndian.Uint32(m.Payload[4:8])
	count := binary.BigEndian.Uint32(m.Payload[8:12])
	total := binary.BigEndian.Uint32(m.Payload[12:16])
	chunk := m.Payload[fragHeaderLen:]
	if total > maxFrameLen || int(count) != fragCount(int(total)) || idx >= count {
		return
	}
	lo := int(idx) * MaxFragPayload
	if want := min(MaxFragPayload, int(total)-lo); len(chunk) != want {
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	at := slices.IndexFunc(c.building, func(a *assembly) bool { return a.id == id })
	if at < 0 {
		if len(c.building) == maxPending {
			c.building = slices.Delete(c.building, 0, 1)
			c.dropped++
		}
		at = len(c.building)
		c.building = append(c.building, &assembly{
			id: id, data: make([]byte, total), seen: make([]bool, count), missing: int(count),
		})
	}
	asm := c.building[at]
	if len(asm.data) != int(total) || asm.seen[idx] {
		return // another frame's header under this id, or a duplicate
	}
	copy(asm.data[lo:], chunk)
	asm.seen[idx] = true
	asm.missing--
	if m.Latency > asm.latency {
		asm.latency = m.Latency
		asm.stages = m.Stages()
	}
	if asm.missing > 0 {
		return
	}
	c.building = slices.Delete(c.building, at, at+1)
	c.ready = append(c.ready, Frame{
		ID:        id,
		Data:      asm.data,
		Latency:   asm.latency,
		Stages:    asm.stages,
		Fragments: len(asm.seen),
	})
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// NextFrame returns the next complete frame, waiting up to timeout.
func (c *Client) NextFrame(timeout time.Duration) (Frame, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return Frame{}, ErrClosed
		}
		if len(c.ready) > 0 {
			f := c.ready[0]
			c.ready = c.ready[1:]
			c.mu.Unlock()
			return f, nil
		}
		c.mu.Unlock()
		select {
		case <-c.notify:
		case <-deadline.C:
			return Frame{}, fmt.Errorf("streaming: no frame within %v", timeout)
		}
	}
}

// Dropped reports how many frames were given up incomplete: evicted, oldest
// first, when a new frame needed their place under reassembly.
func (c *Client) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Close shuts the client down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.sess.Close()
}
