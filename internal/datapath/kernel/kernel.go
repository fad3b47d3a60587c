// Package kernel implements the kernel UDP/IP datapath plugin: the
// baseline "slow path" of INSANE (§5.2: "if no acceleration is required,
// the kernel-based UDP protocol is always used").
//
// The plugin stands in for AF_INET sockets over the OS stack. Frames are
// built and parsed by this plugin itself — modeling the kernel's protocol
// processing — and every packet is charged the calibrated syscall, stack
// and copy costs of the kernel path (internal/model). The kernel path is
// not zero-copy (Table 1): the send side really copies, and the receive
// side charges the kernel→user copy while the one real copy per frame —
// the wire into the socket's registered memory — is the fabric's.
package kernel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// Plugin creates kernel UDP endpoints. Kernel networking is available on
// every host.
type Plugin struct{}

var _ datapath.Plugin = Plugin{}

// Tech returns model.TechKernelUDP.
func (Plugin) Tech() model.Tech { return model.TechKernelUDP }

// Info returns the Table 1 record for kernel UDP.
func (Plugin) Info() model.TechInfo { return model.Info(model.TechKernelUDP) }

// Available always reports true: every host has a kernel stack.
func (Plugin) Available(datapath.Caps) bool { return true }

// Open creates a socket-like endpoint bound to cfg.Local.
func (Plugin) Open(cfg datapath.Config) (datapath.Endpoint, error) {
	if cfg.Port == nil || cfg.Resolver == nil || cfg.Mem == nil {
		return nil, fmt.Errorf("kernel: incomplete config")
	}
	cfg.Port.SetRxMemory(cfg.Mem)
	return &endpoint{
		cfg:     cfg,
		costs:   model.KernelUDP(),
		scratch: make([]byte, netstack.HeadersLen+netstack.MaxPayload(cfg.Port.MTU())),
		wakeup: model.Component{
			Name: "rx-wakeup", Category: model.CatRecv,
			Class: model.ScaleKernel, LatencyOnly: model.BlockingWakeup(),
		},
	}, nil
}

// endpoint is a simulated AF_INET UDP socket. It is not safe for
// concurrent use: the runtime serializes access from one polling thread,
// matching how the C prototype binds each datapath to a thread (§5.3).
type endpoint struct {
	cfg     datapath.Config
	costs   model.TechCosts
	scratch []byte
	// wakeup is the extra receive cost of a blocking socket.
	wakeup model.Component
	// backlog holds frames consumed by a blocking WaitRecv, processed by
	// the next Poll.
	backlog datapath.Backlog
	closed  atomic.Bool
	stats   statCounters
}

type statCounters struct {
	txPackets, rxPackets atomic.Uint64
	txBytes, rxBytes     atomic.Uint64
	drops                atomic.Uint64
	emptyPolls           atomic.Uint64
}

func (s *statCounters) snapshot() datapath.Stats {
	return datapath.Stats{
		TxPackets:  s.txPackets.Load(),
		RxPackets:  s.rxPackets.Load(),
		TxBytes:    s.txBytes.Load(),
		RxBytes:    s.rxBytes.Load(),
		Drops:      s.drops.Load(),
		EmptyPolls: s.emptyPolls.Load(),
	}
}

// Tech returns model.TechKernelUDP.
func (e *endpoint) Tech() model.Tech { return model.TechKernelUDP }

// MTU returns the maximum message the socket accepts (no fragmentation).
func (e *endpoint) MTU() int { return netstack.MaxPayload(e.cfg.Port.MTU()) }

// Stats returns a snapshot of the endpoint counters.
func (e *endpoint) Stats() datapath.Stats { return e.stats.snapshot() }

// Send copies each message through the simulated kernel stack and
// transmits it. Kernel sockets have no burst interface, so costs never
// amortize (burst = 1).
//
//insane:hotpath
func (e *endpoint) Send(pkts []*datapath.Packet, dst netstack.Endpoint) (int, error) {
	if e.closed.Load() {
		return 0, datapath.ErrClosed
	}
	dstMAC, err := e.cfg.Resolver.Resolve(dst.IP)
	if err != nil {
		//lint:ignore insanevet/hotpathcheck cold error path: destination outside the static ARP table
		return 0, fmt.Errorf("kernel: %w", err)
	}
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
		p.Charge(&e.costs.TxSyscall, p.Len, 1, tb)
		p.Charge(&e.costs.TxStack, p.Len, 1, tb) // includes the user→kernel copy
		p.Charge(&e.costs.NICTx, p.Len, 1, tb)

		// The "kernel" builds the frame in its own buffer: a real copy,
		// as on the non-zero-copy kernel path.
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
			return i, fmt.Errorf("kernel: %w", err)
		}
		if err := e.cfg.Port.Transmit(e.scratch[:n], p.VTime, p.Breakdown); err != nil {
			//lint:ignore insanevet/hotpathcheck cold error path: the port was closed or never attached
			return i, fmt.Errorf("kernel: %w", err)
		}
		e.stats.txPackets.Add(1)
		e.stats.txBytes.Add(uint64(p.Len))
	}
	return len(pkts), nil
}

// errFramed rejects a packet already framed for a userspace stack.
var errFramed = errors.New("kernel: framed packet on kernel path")

// Poll receives up to len(pkts) datagrams without blocking, running each
// frame through the simulated kernel receive path. A datagram stays in
// place in its frame's slot — the payload of a frame at slot offset 0
// already sits at datapath.Headroom — and a frame for another socket is
// dropped and its slot released.
//
//insane:hotpath
func (e *endpoint) Poll(pkts []datapath.Packet) (int, error) {
	if e.closed.Load() {
		return 0, datapath.ErrClosed
	}
	tb := &e.cfg.Testbed
	n := 0
	//insane:bounded by=every iteration consumes one queued frame; the RX queue holds at most fabric's rxQueueDepth and n stops at len(pkts)
	for n < len(pkts) {
		frame, ok := e.backlog.Next(e.cfg.Port)
		if !ok {
			break
		}
		meta, payload, err := netstack.DecodeUDP(frame.Data)
		if err != nil || meta.Dst.Port != e.cfg.Local.Port {
			e.stats.drops.Add(1)
			_ = e.cfg.Mem.Release(frame.Slot) // a received frame holds exactly the reference the port took
			continue
		}
		pkts[n] = datapath.PacketOf(frame)
		p := &pkts[n]
		p.Off, p.Len, p.Framed = datapath.Headroom, len(payload), false
		p.Src, p.Dst = meta.Src, meta.Dst
		p.Charge(&e.costs.NICRx, p.Len, 1, tb)
		p.Charge(&e.costs.RxWait, p.Len, 1, tb)
		p.Charge(&e.costs.RxStack, p.Len, 1, tb) // kernel→user copy cost
		p.Charge(&e.costs.RxPoll, p.Len, 1, tb)
		if e.cfg.Blocking {
			p.Charge(&e.wakeup, p.Len, 1, tb)
		}
		e.stats.rxPackets.Add(1)
		e.stats.rxBytes.Add(uint64(p.Len))
		n++
	}
	if n == 0 {
		e.stats.emptyPolls.Add(1)
	}
	return n, nil
}

// WaitRecv blocks until a datagram is queued (blocking-socket semantics).
// The frame it takes off the port is kept for the next Poll.
func (e *endpoint) WaitRecv(timeout time.Duration) error {
	if e.closed.Load() {
		return datapath.ErrClosed
	}
	if !e.cfg.Blocking {
		return nil
	}
	return e.backlog.Wait(e.cfg.Port, timeout)
}

// Close closes the socket; frames it still holds, and those queued on the
// port, go back to the pools.
func (e *endpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		e.backlog.Release(e.cfg.Mem)
		e.cfg.Port.SetRxMemory(nil)
	}
	return nil
}
