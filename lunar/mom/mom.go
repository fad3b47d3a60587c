// Package mom implements Lunar MoM, the decentralized Message-oriented
// Middleware the paper builds on the INSANE API in ~135 lines of C (§7.1).
//
// The mapping to INSANE primitives is the one the paper describes:
// topics hash to channel ids, lunar_publish opens a source on the topic's
// channel on first use and emits zero-copy buffers, lunar_subscribe opens
// a sink with a callback. Message dissemination, technology selection and
// fanout are entirely INSANE's business — that is the point.
package mom

import (
	"errors"
	"hash/fnv"
	"sync"
	"time"

	"github.com/insane-mw/insane/insane"
)

// momOverhead is the small per-side cost Lunar MoM adds on top of raw
// INSANE (topic hashing and callback dispatch); the paper measures it as
// ns-scale (§7.1).
const momOverhead = 40 * time.Nanosecond

// ErrClosed is returned on operations against a closed MoM.
var ErrClosed = errors.New("mom: closed")

// Meta carries per-message delivery metadata to subscribers.
type Meta struct {
	Topic string
	// Latency is the one-way virtual latency including MoM overhead.
	Latency time.Duration
	// Stages splits Latency into INSANE's pipeline stages; the MoM
	// overhead is accounted to Processing.
	Stages insane.Stages
}

// Handler consumes one publication. The payload is only valid during the
// call: copy it to keep it.
type Handler func(payload []byte, meta Meta)

// MoM is a decentralized publisher/subscriber endpoint.
//
//insane:shared
type MoM struct {
	sess   *insane.Session //insane:guardedby immutable after=New
	stream *insane.Stream  //insane:guardedby immutable after=New

	mu      sync.Mutex
	sources map[uint32]*insane.Source //insane:guardedby mu=mu
	sinks   []*insane.Sink            //insane:guardedby mu=mu
	closed  bool                      //insane:guardedby mu=mu
}

// TopicChannel hashes a topic name to its INSANE channel id, as the paper
// prescribes ("the topic name is hashed to obtain the topic id").
func TopicChannel(topic string) int {
	h := fnv.New32a()
	h.Write([]byte(topic))
	// Keep the channel positive and out of the low range apps use by
	// convention for direct channel ids.
	return int(h.Sum32()&0x7FFFFFFF | 0x1000)
}

// New opens a MoM endpoint on a node. The QoS options select the stream's
// acceleration level exactly as for any INSANE stream: Lunar fast is a
// MoM over {Datapath: Fast}, Lunar slow over {Datapath: Slow}.
func New(node *insane.Node, opts insane.Options) (*MoM, error) {
	sess, err := node.InitSession()
	if err != nil {
		return nil, err
	}
	stream, err := sess.CreateStreamOpts(insane.WithOptions(opts))
	if err != nil {
		sess.Close()
		return nil, err
	}
	return &MoM{
		sess:    sess,
		stream:  stream,
		sources: make(map[uint32]*insane.Source),
	}, nil
}

// Technology names the network technology the MoM's stream mapped to.
func (m *MoM) Technology() string { return m.stream.Technology() }

// Publish sends payload on a topic (lunar_publish with a pre-filled
// buffer). The first publication on a topic opens its source.
func (m *MoM) Publish(topic string, payload []byte) error {
	return m.PublishInto(topic, len(payload), func(dst []byte) int {
		return copy(dst, payload)
	})
}

// PublishInto is the zero-copy variant matching the paper's callback
// style: it borrows a buffer of the given size and lets fill write the
// payload directly into shared memory, returning the bytes written.
func (m *MoM) PublishInto(topic string, size int, fill func(dst []byte) int) error {
	src, err := m.source(topic)
	if err != nil {
		return err
	}
	buf, err := src.GetBuffer(size)
	if err != nil {
		return err
	}
	n := fill(buf.Payload)
	if n < 0 || n > size {
		src.Abort(buf)
		return errors.New("mom: fill callback wrote out of bounds")
	}
	buf.AddProcessing(momOverhead)
	for {
		_, err := src.Emit(buf, n)
		if err == nil {
			return nil
		}
		if !errors.Is(err, insane.ErrBackpressure) {
			src.Abort(buf)
			return err
		}
	}
}

// source returns (opening if needed) the source for a topic.
func (m *MoM) source(topic string) (*insane.Source, error) {
	ch := uint32(TopicChannel(topic))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if s, ok := m.sources[ch]; ok {
		return s, nil
	}
	s, err := m.stream.CreateSource(int(ch))
	if err != nil {
		return nil, err
	}
	m.sources[ch] = s
	return s, nil
}

// Subscribe registers a handler for a topic (lunar_subscribe); messages
// are dispatched from the sink's callback goroutine.
func (m *MoM) Subscribe(topic string, handler Handler) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.mu.Unlock()

	sink, err := m.stream.CreateSink(TopicChannel(topic), func(msg *insane.Message) {
		st := msg.Stages()
		st.Processing += momOverhead
		handler(msg.Payload, Meta{
			Topic:   topic,
			Latency: msg.Latency + momOverhead,
			Stages:  st,
		})
	})
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.sinks = append(m.sinks, sink)
	m.mu.Unlock()
	return nil
}

// Close tears the MoM endpoint down.
func (m *MoM) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	sinks := m.sinks
	m.sinks = nil
	m.mu.Unlock()
	for _, k := range sinks {
		k.Close()
	}
	return m.sess.Close()
}
