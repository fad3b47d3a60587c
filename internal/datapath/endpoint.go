package datapath

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// DefaultRecvDepth is the RDMA receive queue depth: how many receive
// buffers an endpoint keeps posted. Matches common verbs defaults.
const DefaultRecvDepth = 256

// techRow is what a technology's endpoint does differently from the other
// three, beyond what the tree already records elsewhere: who builds the
// frame is Table 1's NeedsUserStack (model.Info), and which components a
// packet is charged is the cost profile (model.Costs).
type techRow struct {
	// bursts: the native interface moves packets in bursts, so per-burst
	// work (model.Component.Amort) is shared by the packets of one Send or
	// one Poll.
	bursts bool
	// canBlock: the native interface can sleep until traffic arrives, so
	// WaitRecv honours Config.Blocking.
	canBlock bool
	// recvQueue, when positive, is the number of receive buffers posted
	// ahead of arriving messages; what arrives beyond them is refused.
	recvQueue int
}

var techRows = map[model.Tech]techRow{
	// Kernel UDP is the baseline "slow path" (§5.2: "if no acceleration is
	// required, the kernel-based UDP protocol is always used"): an AF_INET
	// socket over the OS stack. The endpoint builds and parses the frames
	// itself — that is the kernel's protocol processing — and the path is
	// not zero-copy (Table 1): the send side really copies, and the
	// receive side charges the kernel→user copy while the one real copy
	// per frame, the wire into the socket's registered memory, is the
	// fabric's. Sockets have no burst interface, so nothing amortizes; a
	// socket can block, at the price of a process wake-up per datagram
	// ("process wake-ups are costly", §6.2).
	model.TechKernelUDP: {canBlock: true},

	// XDP is the resource-frugal accelerated path (§5.2: "XDP is generally
	// slower but does not require a set of CPU cores to continuously
	// spin"): an AF_XDP socket with the pools as its UMEM. Packets are
	// framed by the packet processing engine and leave zero-copy, like
	// DPDK, but each one pays an in-kernel driver hop (the eBPF program
	// that forwards descriptors between the driver and the socket) and
	// each TX burst a sendto() kick. The fill ring is the port taking a
	// UMEM slot for every frame that arrives. poll(2) on the socket is
	// what saves the spinning cores, so it can block. Not part of the
	// paper's measured C prototype (the integration was ongoing work);
	// the profile is calibrated from the AF_XDP literature.
	model.TechXDP: {bursts: true, canBlock: true},

	// DPDK is the "fast path" (§5.2: chosen when acceleration is requested
	// and resource usage is not a concern): a poll-mode driver on a
	// kernel-bypassed NIC. The runtime's polling thread is the lcore,
	// packets move with rte_eth_tx_burst/rx_burst semantics and the
	// per-burst doorbell amortizes — INSANE's opportunistic batching leans
	// on exactly this (§6.2). The engine builds the headers into the slot
	// headroom, so frames are DMAed straight out of and into the pools
	// (zero-copy, Table 1), with no kernel crossing. A PMD never blocks,
	// it spins: that is DPDK's CPU cost (Table 1).
	model.TechDPDK: {bursts: true},

	// RDMA (RoCEv2, two-sided) is the preferred accelerated path where the
	// hardware exists (§5.2: "RDMA is the best alternative, because it
	// offers the best network performance for a low resource usage"). The
	// interface is verbs-style: the host posts send work requests to a
	// queue pair and polls a completion queue, the NIC executes the
	// transport, so host costs are tiny and protocol processing is charged
	// to the NIC, not to a core. Only SEND/RECV is modelled: INSANE leaves
	// one-sided READ/WRITE out of its common-denominator API (§3). Two-
	// sided means "the receiver [must] actively listen to incoming data"
	// (§3): a message consumes a pre-posted receive buffer and is dropped
	// receiver-not-ready when none is left. Encapsulating in UDP is
	// faithful — RoCEv2 is the InfiniBand transport carried in UDP/IP.
	// Completion queues are polled, never waited on.
	model.TechRDMA: {bursts: true, recvQueue: DefaultRecvDepth},
}

// Endpoint is an open attachment of one technology to a fabric port: a
// socket, an AF_XDP socket, a PMD-driven port or a queue pair. It is not
// safe for concurrent use: the runtime serializes access from one polling
// thread at a time, matching how the C prototype binds each datapath to a
// thread (§5.3). Only Stats may be called from anywhere.
type Endpoint struct {
	cfg  Config
	tech model.Tech
	row  techRow
	// framed: packets cross this endpoint as complete frames, built and
	// parsed by the caller's packet processing engine (DPDK, XDP). The
	// other technologies implement the protocols themselves, which here
	// means the endpoint encapsulates on Send and demultiplexes on Poll.
	framed bool
	// tx and rx are the profile's components that add virtual time to a
	// packet, in traversal order.
	tx, rx []model.Component
	// scratch is where an encapsulating endpoint builds its frames.
	scratch []byte
	// bell is the doorbell a blocking endpoint arms on its port and
	// WaitRecv sleeps on; nil where WaitRecv returns at once.
	bell   fabric.Bell
	closed atomic.Bool

	txPackets, rxPackets atomic.Uint64
	malformed, rnrDrops  atomic.Uint64
}

// Open attaches technology tech to cfg.Port and registers cfg.Mem with
// the port as the memory it receives into (the stand-in for registering
// the pools with the NIC, binding the UMEM, or posting receive buffers).
// A port registers memory once, so it carries one endpoint in its life.
func Open(tech model.Tech, cfg Config) (*Endpoint, error) {
	row, ok := techRows[tech]
	if !ok {
		return nil, fmt.Errorf("datapath: no endpoint for technology %v", tech)
	}
	framed := model.Info(tech).NeedsUserStack
	if cfg.Port == nil || cfg.Mem == nil || (!framed && cfg.Resolver == nil) {
		return nil, fmt.Errorf("datapath: incomplete %v config", tech)
	}
	cfg.Burst = cfg.EffectiveBurst()
	costs := model.Costs(tech)
	e := &Endpoint{
		cfg: cfg, tech: tech, row: row, framed: framed,
		tx: charged(costs.TxPath()), rx: charged(costs.RxPath()),
	}
	if !framed {
		e.scratch = make([]byte, netstack.HeadersLen+netstack.MaxPayload(cfg.Port.MTU()))
	}
	if tech == model.TechKernelUDP && cfg.Blocking {
		// A blocking socket read swaps the poll pick-up for a costlier
		// process wake-up (RTT 13.34 vs 12.58 µs, Fig. 7a). AF_XDP's wait
		// is part of its calibrated RxWait already.
		e.rx = append(e.rx, model.Component{
			Name: "rx-wakeup", Category: model.CatRecv,
			Class: model.ScaleKernel, LatencyOnly: model.BlockingWakeup(),
		})
	}
	if err := cfg.Port.SetRxMemory(cfg.Mem); err != nil {
		return nil, fmt.Errorf("datapath: open %v: %w", tech, err)
	}
	if cfg.Blocking && row.canBlock {
		e.bell = make(fabric.Bell, 1)
		cfg.Port.SetRxDoorbell(e.bell)
	}
	return e, nil
}

// charged keeps the components that add to a packet's virtual time. A
// technology carries the components it lacks at zero cost, and
// Packet.Charge skips work that is off the latency path (TX completion
// reaping), so neither is worth a call per packet.
func charged(path []model.Component) []model.Component {
	out := path[:0]
	for _, c := range path {
		if !c.OccupancyOnly && (c.Fixed != 0 || c.Amort != 0 || c.PerByteNs != 0 || c.LatencyOnly != 0) {
			out = append(out, c)
		}
	}
	return out
}

// MTU returns the maximum message size the endpoint accepts (jumbo frames
// enabled, §6.2; no fragmentation).
func (e *Endpoint) MTU() int { return netstack.MaxPayload(e.cfg.Port.MTU()) }

// Stats returns a snapshot of the endpoint counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		TxPackets: e.txPackets.Load(),
		RxPackets: e.rxPackets.Load(),
		Malformed: e.malformed.Load(),
		RNRDrops:  e.rnrDrops.Load(),
	}
}

var (
	// errFramed rejects a packet already framed for a userspace stack.
	errFramed = errors.New("datapath: framed packet; the kernel or the NIC implements the transport")
	// errUnframed rejects a packet the packet processing engine did not frame.
	errUnframed = errors.New("datapath: unframed packet; the packet processing engine must encode first")
)

// Send transmits a burst of packets to dst: a tx_burst, a sendto() kick
// over the TX ring, a run of posted work requests or of send() calls. It
// returns the number of packets accepted; the caller retains ownership of
// the rejected ones. A framed endpoint ignores dst — the frames carry
// their addresses.
//
//insane:hotpath
func (e *Endpoint) Send(pkts []*Packet, dst netstack.Endpoint) (int, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	var meta netstack.FrameMeta
	if !e.framed {
		dstMAC, err := e.cfg.Resolver.Resolve(dst.IP)
		if err != nil {
			//lint:ignore insanevet/hotpathcheck cold error path: destination outside the static ARP table
			return 0, fmt.Errorf("%v: %w", e.tech, err)
		}
		meta = netstack.FrameMeta{SrcMAC: e.cfg.Port.MAC(), DstMAC: dstMAC, Src: e.cfg.Local, Dst: dst}
	}
	burst := 1
	if e.row.bursts {
		burst = len(pkts)
	}
	tb := &e.cfg.Testbed
	mtu := e.cfg.Port.MTU()
	//insane:bounded by=pkts is one TX burst of the caller
	for i, p := range pkts {
		if p.Framed != e.framed {
			if e.framed {
				return i, errUnframed
			}
			return i, errFramed
		}
		payload, wire := p.Len, p.Bytes()
		if e.framed {
			payload -= netstack.HeadersLen
		} else {
			if p.Len > netstack.MaxPayload(mtu) {
				//lint:ignore insanevet/hotpathcheck cold error path: message above the path MTU
				return i, fmt.Errorf("%w: %d > %d", ErrTooLarge, p.Len, netstack.MaxPayload(mtu))
			}
			// The frame is built in the endpoint's own buffer. On kernel
			// UDP that is the user→kernel copy the path really makes
			// (charged in TxStack); on RDMA it stands for the NIC reading
			// the message out of the registered region and encapsulating
			// it, which costs the host nothing.
			copy(e.scratch[netstack.HeadersLen:], wire)
			n, err := netstack.EncodeUDP(e.scratch, meta, p.Len, mtu)
			if err != nil {
				//lint:ignore insanevet/hotpathcheck cold error path: frame does not fit the MTU
				return i, fmt.Errorf("%v: %w", e.tech, err)
			}
			wire = e.scratch[:n]
		}
		//insane:bounded by=at most the five components of model.TechCosts.TxPath, filtered at Open
		for j := range e.tx {
			p.Charge(&e.tx[j], payload, burst, tb)
		}
		if err := e.cfg.Port.Transmit(wire, p.VTime, p.Breakdown); err != nil {
			//lint:ignore insanevet/hotpathcheck cold error path: the port was closed or never attached
			return i, fmt.Errorf("%v: %w", e.tech, err)
		}
		e.txPackets.Add(1)
	}
	return len(pkts), nil
}

// Poll receives up to len(pkts) packets into pkts without blocking and
// returns how many it filled: an rx_burst, a drain of the AF_XDP RX ring, a
// completion-queue poll or a run of non-blocking reads. Each packet sits,
// where the wire copy put it, in a slot of Config.Mem that the caller now
// owns. The vector is the caller's: one per polling thread.
//
// A framed endpoint hands the frames over as they are, for the packet
// processing engine. The others parse them here: the message stays in
// place, and a frame that does not parse or is for another socket is
// dropped, counted and its slot released.
//
//insane:hotpath
func (e *Endpoint) Poll(pkts []Packet) (int, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	// The burst interfaces of the framed technologies return at most
	// Config.Burst descriptors per call; a read loop or a CQ poll is
	// bounded by the caller's vector alone.
	if e.framed && len(pkts) > e.cfg.Burst {
		pkts = pkts[:e.cfg.Burst]
	}
	n := 0
	//insane:bounded by=every iteration consumes one queued frame; the RX queue holds at most fabric's rxQueueDepth and n stops at len(pkts)
	for n < len(pkts) {
		frame, ok := e.cfg.Port.TryRecv()
		if !ok {
			break
		}
		// A frame lies in its receive slot whole, at offset 0; its payload
		// therefore already sits at Headroom.
		off, length := 0, len(frame.Data)
		var src, dst netstack.Endpoint
		if !e.framed {
			meta, payload, err := netstack.DecodeUDP(frame.Data)
			if err != nil || meta.Dst.Port != e.cfg.Local.Port {
				e.malformed.Add(1)
				_ = e.cfg.Mem.Release(frame.Slot) // a received frame holds exactly the reference the port took
				continue
			}
			// Every message reaped consumes a posted receive buffer, and
			// the buffers are re-posted when the poll returns, as the
			// runtime's receive loop would: one poll completes at most
			// recvQueue messages and refuses the rest.
			if e.row.recvQueue > 0 && n >= e.row.recvQueue {
				e.rnrDrops.Add(1)
				_ = e.cfg.Mem.Release(frame.Slot) // as above
				continue
			}
			off, length = Headroom, len(payload)
			src, dst = meta.Src, meta.Dst
		}
		pkts[n] = Packet{
			Slot:      frame.Slot,
			Buf:       frame.Data[:cap(frame.Data)],
			Off:       off,
			Len:       length,
			Framed:    e.framed,
			Src:       src,
			Dst:       dst,
			VTime:     frame.VTime,
			Breakdown: frame.Breakdown,
		}
		n++
	}
	if n == 0 {
		return 0, nil
	}
	burst := 1
	if e.row.bursts {
		burst = n
	}
	tb := &e.cfg.Testbed
	//insane:bounded by=n <= len(pkts), one RX burst
	for i := 0; i < n; i++ {
		p := &pkts[i]
		payload := p.Len
		if e.framed {
			payload -= netstack.HeadersLen
		}
		//insane:bounded by=at most the four components of model.TechCosts.RxPath plus the blocking wake-up, fixed at Open
		for j := range e.rx {
			p.Charge(&e.rx[j], payload, burst, tb)
		}
	}
	e.rxPackets.Add(uint64(n))
	return n, nil
}

// WaitRecv blocks until at least one frame is queued on the port or the
// timeout elapses (zero: no deadline), where Config.Blocking asks for it
// and the technology can (a blocking socket, poll(2) on an AF_XDP socket);
// everywhere else it returns at once. It sleeps on the port's doorbell and
// takes nothing: the frame stays queued for the next Poll.
func (e *Endpoint) WaitRecv(timeout time.Duration) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.bell == nil {
		return nil
	}
	return e.bell.Wait(e.cfg.Port, timeout)
}

// Close releases the endpoint and closes its port: every frame still
// queued there goes back to Config.Mem, and a peer that keeps transmitting
// takes nothing from it.
func (e *Endpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		if e.bell != nil {
			e.cfg.Port.SetRxDoorbell(nil)
		}
		e.cfg.Port.Close()
	}
	return nil
}
