// Package rdma implements the RDMA (RoCEv2, two-sided) datapath plugin:
// the preferred accelerated path when available (§5.2: "RDMA is the best
// alternative, because it offers the best network performance for a low
// resource usage").
//
// The plugin models a verbs-style interface: applications (here, the
// runtime) post send work requests to a queue pair and poll a completion
// queue; the NIC engine executes the transport in hardware, so host CPU
// costs are tiny and protocol processing is charged to the NIC, not to a
// core. Receives consume pre-posted receive buffers — if none are posted
// the packet is dropped (receiver-not-ready), which the runtime avoids by
// keeping the receive queue replenished.
//
// INSANE deliberately supports only two-sided SEND/RECV (§3): one-sided
// READ/WRITE is out of scope for the middleware's common-denominator API.
//
// The wire format is UDP encapsulation, which is faithful: RoCEv2 *is*
// an InfiniBand transport carried in UDP/IP packets.
package rdma

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// DefaultRecvDepth is the default receive queue depth: how many receive
// buffers the endpoint keeps posted. Matches common verbs defaults.
const DefaultRecvDepth = 256

// Plugin creates RDMA endpoints on hosts with an RDMA-capable NIC.
type Plugin struct {
	// RecvDepth overrides DefaultRecvDepth when positive (tests use a
	// tiny depth to exercise receiver-not-ready drops).
	RecvDepth int
}

var _ datapath.Plugin = Plugin{}

// Tech returns model.TechRDMA.
func (Plugin) Tech() model.Tech { return model.TechRDMA }

// Info returns the Table 1 record for RDMA.
func (Plugin) Info() model.TechInfo { return model.Info(model.TechRDMA) }

// Available reports whether the host has an RDMA NIC (Table 1: dedicated
// hardware required).
func (Plugin) Available(caps datapath.Caps) bool { return caps.RDMA }

// Open registers the runtime memory with the NIC and creates a queue pair
// endpoint.
func (p Plugin) Open(cfg datapath.Config) (datapath.Endpoint, error) {
	if cfg.Port == nil || cfg.Resolver == nil || cfg.Mem == nil {
		return nil, fmt.Errorf("rdma: incomplete config")
	}
	cfg.Port.SetRxMemory(cfg.Mem)
	depth := p.RecvDepth
	if depth <= 0 {
		depth = DefaultRecvDepth
	}
	e := &endpoint{
		cfg:     cfg,
		costs:   model.RDMA(),
		depth:   depth,
		scratch: make([]byte, netstack.HeadersLen+netstack.MaxPayload(cfg.Port.MTU())),
	}
	e.credits.Store(int64(depth))
	return e, nil
}

// endpoint models one queue pair bound to a hardware NIC engine.
type endpoint struct {
	cfg     datapath.Config
	costs   model.TechCosts
	depth   int
	scratch []byte
	closed  atomic.Bool

	// credits counts posted receive buffers (the receive queue).
	credits atomic.Int64

	txPackets, rxPackets atomic.Uint64
	txBytes, rxBytes     atomic.Uint64
	drops                atomic.Uint64
	rnrDrops             atomic.Uint64
	emptyPolls           atomic.Uint64
}

// Tech returns model.TechRDMA.
func (e *endpoint) Tech() model.Tech { return model.TechRDMA }

// MTU returns the maximum message payload per work request.
func (e *endpoint) MTU() int { return netstack.MaxPayload(e.cfg.Port.MTU()) }

// Stats returns a snapshot of the endpoint counters; receiver-not-ready
// drops count into Drops.
func (e *endpoint) Stats() datapath.Stats {
	return datapath.Stats{
		TxPackets:  e.txPackets.Load(),
		RxPackets:  e.rxPackets.Load(),
		TxBytes:    e.txBytes.Load(),
		RxBytes:    e.rxBytes.Load(),
		Drops:      e.drops.Load() + e.rnrDrops.Load(),
		EmptyPolls: e.emptyPolls.Load(),
	}
}

// RNRDrops reports how many inbound messages were dropped because no
// receive buffer was posted.
func (e *endpoint) RNRDrops() uint64 { return e.rnrDrops.Load() }

// Send posts send work requests for a burst of messages. The host only
// writes the WQE; transport processing is charged to the NIC engine.
//
//insane:hotpath
func (e *endpoint) Send(pkts []*datapath.Packet, dst netstack.Endpoint) (int, error) {
	if e.closed.Load() {
		return 0, datapath.ErrClosed
	}
	dstMAC, err := e.cfg.Resolver.Resolve(dst.IP)
	if err != nil {
		//lint:ignore insanevet/hotpathcheck cold error path: destination outside the static ARP table
		return 0, fmt.Errorf("rdma: %w", err)
	}
	burst := len(pkts)
	tb := &e.cfg.Testbed
	mtu := e.cfg.Port.MTU()
	//insane:bounded by=pkts is one TX burst of the caller, <= model.MaxBurst
	for i, p := range pkts {
		if p.Framed {
			return i, errFramed
		}
		if p.Len > netstack.MaxPayload(mtu) {
			//lint:ignore insanevet/hotpathcheck cold error path: message above the path MTU
			return i, fmt.Errorf("%w: %d > %d", datapath.ErrTooLarge, p.Len, netstack.MaxPayload(mtu))
		}
		p.Charge(&e.costs.TxDriver, p.Len, burst, tb)   // post WQE
		p.Charge(&e.costs.TxComplete, p.Len, burst, tb) // CQ reaping (occupancy only)
		p.Charge(&e.costs.NICTx, p.Len, burst, tb)      // hardware transport

		// The NIC reads the message directly from the registered memory
		// region (zero-copy from the slot) and encapsulates it (RoCEv2).
		copy(e.scratch[netstack.HeadersLen:], p.Bytes())
		meta := netstack.FrameMeta{
			SrcMAC: e.cfg.Port.MAC(),
			DstMAC: dstMAC,
			Src:    e.cfg.Local,
			Dst:    dst,
		}
		n, err := netstack.EncodeUDP(e.scratch, meta, p.Len, mtu)
		if err != nil {
			//lint:ignore insanevet/hotpathcheck cold error path: frame does not fit the MTU
			return i, fmt.Errorf("rdma: %w", err)
		}
		if err := e.cfg.Port.Transmit(e.scratch[:n], p.VTime, p.Breakdown); err != nil {
			//lint:ignore insanevet/hotpathcheck cold error path: the port was closed or never attached
			return i, fmt.Errorf("rdma: %w", err)
		}
		e.txPackets.Add(1)
		e.txBytes.Add(uint64(p.Len))
	}
	return len(pkts), nil
}

// errFramed rejects a packet already framed for a userspace stack.
var errFramed = errors.New("rdma: framed packet; the NIC implements the transport")

// Poll reaps receive completions: each completed message sits in a
// pre-posted receive buffer (a memory-manager slot the NIC wrote the frame
// into). Consumed receive credits are re-posted afterwards, as the
// runtime's receive loop would.
//
//insane:hotpath
func (e *endpoint) Poll(pkts []datapath.Packet) (int, error) {
	if e.closed.Load() {
		return 0, datapath.ErrClosed
	}
	n := 0
	//insane:bounded by=every iteration consumes one queued frame; the RX queue holds at most fabric's rxQueueDepth and n stops at len(pkts)
	for n < len(pkts) {
		frame, ok := e.cfg.Port.TryRecv()
		if !ok {
			break
		}
		meta, payload, err := netstack.DecodeUDP(frame.Data)
		if err != nil || meta.Dst.Port != e.cfg.Local.Port {
			e.drops.Add(1)
			_ = e.cfg.Mem.Release(frame.Slot) // a received frame holds exactly the reference the port took
			continue
		}
		// A receive buffer must have been posted (two-sided semantics:
		// "the receiver [must] actively listen to incoming data", §3).
		if e.credits.Add(-1) < 0 {
			e.credits.Add(1)
			e.rnrDrops.Add(1)
			_ = e.cfg.Mem.Release(frame.Slot) // as above
			continue
		}
		// The message stays where the NIC put it: the payload of a frame
		// at slot offset 0 already sits at datapath.Headroom.
		pkts[n] = datapath.PacketOf(frame)
		p := &pkts[n]
		p.Off, p.Len, p.Framed = datapath.Headroom, len(payload), false
		p.Src, p.Dst = meta.Src, meta.Dst
		n++
	}
	tb := &e.cfg.Testbed
	//insane:bounded by=n <= len(pkts), one RX burst
	for i := 0; i < n; i++ {
		p := &pkts[i]
		p.Charge(&e.costs.NICRx, p.Len, n, tb)  // hardware transport
		p.Charge(&e.costs.RxPoll, p.Len, n, tb) // CQ poll
		e.rxPackets.Add(1)
		e.rxBytes.Add(uint64(p.Len))
		// Re-post the consumed receive buffer.
		e.credits.Add(1)
	}
	if n == 0 {
		e.emptyPolls.Add(1)
	}
	return n, nil
}

// WaitRecv returns immediately: completion queues are polled.
func (e *endpoint) WaitRecv(time.Duration) error {
	if e.closed.Load() {
		return datapath.ErrClosed
	}
	return nil
}

// Close destroys the queue pair; messages still queued on the port go
// back to the pools.
func (e *endpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		e.cfg.Port.SetRxMemory(nil)
	}
	return nil
}
