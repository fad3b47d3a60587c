// Package refsys implements the reference systems the paper compares the
// Lunar applications against (§7): a Cyclone-DDS-like decentralized
// pub/sub middleware, a ZeroMQ-like messaging socket, and a sendfile-based
// zero-copy file sender. All run over the kernel UDP datapath — the paper
// configures DDS and ZeroMQ with UDP transports — with per-message
// serialization costs calibrated to Fig. 9.
package refsys

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// Flavor selects the modeled middleware.
type Flavor int

// The reference middlewares of Fig. 9.
const (
	// FlavorCyclone models Cyclone DDS: RTPS wire protocol, CDR
	// serialization, blocking-socket receive thread. The paper measures
	// it ≈45% above blocking-socket systems with higher variability.
	FlavorCyclone Flavor = iota + 1
	// FlavorZeroMQ models ZeroMQ's UDP (radio/dish) support: an extra
	// internal I/O-thread queue hop per side adds ≈20 µs to Cyclone's
	// RTT, with unstable throughput (excluded from Fig. 9b).
	FlavorZeroMQ
)

// String names the flavor as in the figure legends.
func (f Flavor) String() string {
	switch f {
	case FlavorCyclone:
		return "Cyclone DDS"
	case FlavorZeroMQ:
		return "ZeroMQ UDP"
	default:
		return "unknown"
	}
}

// Per-message middleware costs, calibrated against Fig. 9 (64 B..1 KB).
//
// Cyclone: RTT ≈ blocking UDP + 2×(marshal+unmarshal) ≈ 13.3 + 6 = 19.3 µs
// (+45%); throughput 1 KB ≈ 4.7 Gbps → per-message bottleneck ≈ 1.75 µs.
// ZeroMQ: + ~5 µs of I/O-thread queueing on each of the four pub/deliver
// hops of an echo → +20 µs RTT.
var (
	cycloneMarshal   = model.Component{Name: "cdr-marshal", Category: model.CatProcessing, Class: model.ScaleKernel, Fixed: 1600, PerByteNs: 0.14}
	cycloneUnmarshal = model.Component{Name: "cdr-unmarshal", Category: model.CatProcessing, Class: model.ScaleKernel, Fixed: 1400, PerByteNs: 0.14}
	zmqQueueHop      = model.Component{Name: "zmq-io-thread", Category: model.CatProcessing, Class: model.ScaleKernel, LatencyOnly: 5000}
)

// rtpsHeaderLen is the wire overhead the RTPS-like protocol adds per
// message (a reduced RTPS submessage header).
const rtpsHeaderLen = 20

// rtpsMagic identifies the modeled RTPS encapsulation.
const rtpsMagic = 0x52545053 // "RTPS"

// Participant is a pub/sub endpoint of the reference middleware: it owns
// a kernel UDP socket with a blocking receive thread, like the paper's
// DDS configuration.
type Participant struct {
	flavor Flavor
	tb     model.Testbed
	mm     *mempool.Manager
	ep     *datapath.Endpoint
	local  netstack.Endpoint
	// peers are the statically discovered remote participants.
	peers []netstack.Endpoint
	// jitter models Cyclone's higher variability (±, uniform).
	jitter time.Duration
	rng    *rand.Rand

	readers map[uint32]func(Sample)
}

// Sample is one received publication.
type Sample struct {
	Topic   string
	Payload []byte
	// Latency is the accumulated one-way virtual latency, middleware
	// overhead included.
	Latency time.Duration
	// VTime and Breakdown allow echo benchmarks to continue the clock.
	VTime     timebase.VTime
	Breakdown timebase.Breakdown
}

// Config configures a participant.
type Config struct {
	Port     *fabric.Port
	Resolver *netstack.Resolver
	Local    netstack.Endpoint
	Peers    []netstack.Endpoint
	Testbed  model.Testbed
	// Seed drives the latency jitter model.
	Seed int64
}

// NewParticipant opens a participant of the given flavor.
func NewParticipant(f Flavor, cfg Config) (*Participant, error) {
	if f != FlavorCyclone && f != FlavorZeroMQ {
		return nil, fmt.Errorf("refsys: unknown flavor %d", f)
	}
	if cfg.Port == nil || cfg.Resolver == nil {
		return nil, errors.New("refsys: incomplete config")
	}
	mm, err := mempool.NewManager(mempool.Config{})
	if err != nil {
		return nil, err
	}
	ep, err := datapath.Open(model.TechKernelUDP, datapath.Config{
		Port:     cfg.Port,
		Resolver: cfg.Resolver,
		Local:    cfg.Local,
		Mem:      mm,
		Testbed:  cfg.Testbed,
		Blocking: true, // DDS receive threads block on the socket (§7.1)
		Burst:    1,
	})
	if err != nil {
		return nil, err
	}
	jitter := 1500 * time.Nanosecond
	if f == FlavorZeroMQ {
		jitter = 4 * time.Microsecond // "unstable performance" (§7.1)
	}
	return &Participant{
		flavor:  f,
		tb:      cfg.Testbed,
		mm:      mm,
		ep:      ep,
		local:   cfg.Local,
		peers:   append([]netstack.Endpoint(nil), cfg.Peers...),
		jitter:  jitter,
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(f))),
		readers: make(map[uint32]func(Sample)),
	}, nil
}

// TopicID hashes a topic name to its wire identifier.
func TopicID(topic string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(topic))
	return h.Sum32()
}

// Publish serializes and sends one sample on a topic to all peers.
func (p *Participant) Publish(topic string, payload []byte) error {
	return p.PublishAt(topic, payload, 0, timebase.Breakdown{})
}

// PublishAt publishes a sample with a seeded virtual clock (for echoes).
func (p *Participant) PublishAt(topic string, payload []byte, at timebase.VTime, bd timebase.Breakdown) error {
	msgLen := rtpsHeaderLen + len(payload)
	slot, buf, err := p.mm.Get(datapath.Headroom+msgLen, mempool.NoOwner)
	if err != nil {
		return err
	}
	defer p.mm.Release(slot)

	// Serialize (CDR-like): the copy below is the marshaling pass.
	w := buf[datapath.Headroom:]
	binary.BigEndian.PutUint32(w[0:4], rtpsMagic)
	binary.BigEndian.PutUint32(w[4:8], TopicID(topic))
	binary.BigEndian.PutUint32(w[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(w[12:16], 0) // writer entity id
	binary.BigEndian.PutUint32(w[16:20], 0) // sequence high bits
	copy(w[rtpsHeaderLen:], payload)

	pkt := &datapath.Packet{
		Slot: slot, Buf: buf,
		Off: datapath.Headroom, Len: msgLen,
		Src: p.local, VTime: at, Breakdown: bd,
	}
	pkt.Charge(&cycloneMarshal, len(payload), 1, &p.tb)
	if p.flavor == FlavorZeroMQ {
		pkt.Charge(&zmqQueueHop, len(payload), 1, &p.tb)
	}
	// Jitter: the paper observes markedly higher variability than the
	// raw socket baselines.
	j := time.Duration(p.rng.Int63n(int64(2*p.jitter))) - p.jitter
	if j > 0 {
		pkt.VTime = pkt.VTime.Add(j)
		pkt.Breakdown.Processing += j
	}

	for _, peer := range p.peers {
		out := *pkt
		if _, err := p.ep.Send([]*datapath.Packet{&out}, peer); err != nil {
			return err
		}
	}
	return nil
}

// Subscribe registers a handler for a topic; samples arrive via Spin.
func (p *Participant) Subscribe(topic string, handler func(Sample)) {
	p.readers[TopicID(topic)] = handler
}

// Spin processes inbound samples until the timeout elapses or n samples
// were dispatched (n <= 0 means no count limit). It returns the number
// dispatched. This mirrors a DDS waitset loop.
func (p *Participant) Spin(n int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	dispatched := 0
	var pkts [4]datapath.Packet
	for (n <= 0 || dispatched < n) && time.Now().Before(deadline) {
		if err := p.ep.WaitRecv(time.Until(deadline)); err != nil {
			break
		}
		got, err := p.ep.Poll(pkts[:])
		if err != nil {
			break
		}
		for i := 0; i < got; i++ {
			if p.deliver(&pkts[i]) {
				dispatched++
			}
		}
	}
	return dispatched
}

// deliver parses and dispatches one packet; returns whether a handler ran.
func (p *Participant) deliver(pkt *datapath.Packet) bool {
	defer p.mm.Release(pkt.Slot)
	b := pkt.Bytes()
	if len(b) < rtpsHeaderLen || binary.BigEndian.Uint32(b[0:4]) != rtpsMagic {
		return false
	}
	topicID := binary.BigEndian.Uint32(b[4:8])
	plen := int(binary.BigEndian.Uint32(b[8:12]))
	if rtpsHeaderLen+plen > len(b) {
		return false
	}
	handler, ok := p.readers[topicID]
	if !ok {
		return false
	}
	pkt.Charge(&cycloneUnmarshal, plen, 1, &p.tb)
	if p.flavor == FlavorZeroMQ {
		pkt.Charge(&zmqQueueHop, plen, 1, &p.tb)
	}
	handler(Sample{
		Payload:   append([]byte(nil), b[rtpsHeaderLen:rtpsHeaderLen+plen]...),
		Latency:   pkt.VTime.Duration(),
		VTime:     pkt.VTime,
		Breakdown: pkt.Breakdown,
	})
	return true
}

// Close releases the participant's socket.
func (p *Participant) Close() error { return p.ep.Close() }

// ModelRTT returns the analytic ping-pong RTT of the flavor for Fig. 9a:
// the blocking-socket pipeline plus two marshal/unmarshal pairs (and, for
// ZeroMQ, four I/O-thread hops).
func ModelRTT(f Flavor, payload int, tb model.Testbed) time.Duration {
	base := model.Build(model.SysUDPBlocking).RTT(payload, tb)
	perDir := cycloneMarshal.Latency(payload, &tb) + cycloneUnmarshal.Latency(payload, &tb)
	rtt := base + 2*perDir
	if f == FlavorZeroMQ {
		rtt += 4 * zmqQueueHop.Latency(payload, &tb)
	}
	return rtt
}

// ModelThroughput returns the analytic sustained goodput of the flavor
// for Fig. 9b: the marshaling stage (on the publisher core) bottlenecks
// the kernel pipeline; unmarshaling runs on the subscriber core.
func ModelThroughput(f Flavor, payload int, tb model.Testbed) timebase.Rate {
	p := model.Build(model.SysUDPBlocking)
	bottleneck := p.Bottleneck(payload, 1, tb)
	if m := cycloneMarshal.Occupancy(payload, 1, &tb); m > bottleneck {
		bottleneck = m
	}
	if u := cycloneUnmarshal.Occupancy(payload, 1, &tb); u > bottleneck {
		bottleneck = u
	}
	return timebase.Goodput(payload, bottleneck)
}
