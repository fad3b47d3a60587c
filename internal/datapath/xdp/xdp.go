// Package xdp implements the AF_XDP datapath plugin: the resource-frugal
// accelerated path of INSANE (§5.2: chosen when acceleration is requested
// but CPU consumption is a concern — "XDP is generally slower but does not
// require a set of CPU cores to continuously spin").
//
// The plugin models an AF_XDP socket with a shared UMEM: packets are
// framed by the runtime's packet processing engine (like DPDK), but every
// packet pays an in-kernel driver hop (the eBPF program that forwards
// descriptors between the driver and the socket) instead of a busy-spinning
// lcore. Not part of the paper's measured C prototype (the integration was
// ongoing work); the cost profile is calibrated from the AF_XDP literature.
package xdp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// Plugin creates AF_XDP endpoints on hosts whose driver supports XDP.
type Plugin struct{}

var _ datapath.Plugin = Plugin{}

// Tech returns model.TechXDP.
func (Plugin) Tech() model.Tech { return model.TechXDP }

// Info returns the Table 1 record for XDP.
func (Plugin) Info() model.TechInfo { return model.Info(model.TechXDP) }

// Available reports whether the host driver supports XDP.
func (Plugin) Available(caps datapath.Caps) bool { return caps.XDP }

// Open binds an AF_XDP-style socket to the port, with the memory pools as
// its UMEM.
func (Plugin) Open(cfg datapath.Config) (datapath.Endpoint, error) {
	if cfg.Port == nil || cfg.Mem == nil {
		return nil, fmt.Errorf("xdp: incomplete config")
	}
	cfg.Port.SetRxMemory(cfg.Mem)
	return &endpoint{cfg: cfg, costs: model.XDP()}, nil
}

// endpoint models one AF_XDP socket: the fill ring is the port taking a
// UMEM slot for every frame that arrives, the completion ring the
// per-packet eBPF hop costs. Owned by a single polling thread.
type endpoint struct {
	cfg   datapath.Config
	costs model.TechCosts
	// backlog holds frames consumed by a blocking WaitRecv, processed by
	// the next Poll.
	backlog datapath.Backlog
	closed  atomic.Bool

	txPackets, rxPackets atomic.Uint64
	txBytes, rxBytes     atomic.Uint64
	drops                atomic.Uint64
	emptyPolls           atomic.Uint64
}

// Tech returns model.TechXDP.
func (e *endpoint) Tech() model.Tech { return model.TechXDP }

// MTU returns the maximum message payload.
func (e *endpoint) MTU() int { return netstack.MaxPayload(e.cfg.Port.MTU()) }

// Stats returns a snapshot of the endpoint counters.
func (e *endpoint) Stats() datapath.Stats {
	return datapath.Stats{
		TxPackets:  e.txPackets.Load(),
		RxPackets:  e.rxPackets.Load(),
		TxBytes:    e.txBytes.Load(),
		RxBytes:    e.rxBytes.Load(),
		Drops:      e.drops.Load(),
		EmptyPolls: e.emptyPolls.Load(),
	}
}

// Send places framed packets on the TX ring and kicks the kernel driver:
// zero-copy out of the UMEM, but each kick is a (cheap) syscall and each
// packet an eBPF hop.
//
//insane:hotpath
func (e *endpoint) Send(pkts []*datapath.Packet, _ netstack.Endpoint) (int, error) {
	if e.closed.Load() {
		return 0, datapath.ErrClosed
	}
	burst := len(pkts)
	tb := &e.cfg.Testbed
	//insane:bounded by=pkts is one TX burst of the caller, <= model.MaxBurst
	for i, p := range pkts {
		if !p.Framed {
			return i, errUnframed
		}
		payload := p.Len - netstack.HeadersLen
		p.Charge(&e.costs.TxSyscall, payload, burst, tb) // sendto() kick
		p.Charge(&e.costs.TxStack, payload, burst, tb)   // eBPF driver hop
		p.Charge(&e.costs.TxDriver, payload, burst, tb)  // descriptor ring
		p.Charge(&e.costs.TxComplete, payload, burst, tb)
		p.Charge(&e.costs.NICTx, payload, burst, tb)
		if err := e.cfg.Port.Transmit(p.Bytes(), p.VTime, p.Breakdown); err != nil {
			//lint:ignore insanevet/hotpathcheck cold error path: the port was closed or never attached
			return i, fmt.Errorf("xdp: %w", err)
		}
		e.txPackets.Add(1)
		e.txBytes.Add(uint64(p.Len))
	}
	return len(pkts), nil
}

// errUnframed rejects a packet the packet processing engine did not frame.
var errUnframed = errors.New("xdp: unframed packet; the packet processing engine must encode first")

// Poll drains the RX ring: the eBPF program has already steered frames
// into UMEM slots; each one pays the per-packet driver-hop cost.
//
//insane:hotpath
func (e *endpoint) Poll(pkts []datapath.Packet) (int, error) {
	if e.closed.Load() {
		return 0, datapath.ErrClosed
	}
	if max := e.cfg.EffectiveBurst(); len(pkts) > max {
		pkts = pkts[:max]
	}
	n := 0
	//insane:bounded by=n strictly increases up to len(pkts), one RX burst
	for n < len(pkts) {
		frame, ok := e.backlog.Next(e.cfg.Port)
		if !ok {
			break
		}
		pkts[n] = datapath.PacketOf(frame)
		n++
	}
	tb := &e.cfg.Testbed
	//insane:bounded by=n <= len(pkts), one RX burst
	for i := 0; i < n; i++ {
		p := &pkts[i]
		payload := p.Len - netstack.HeadersLen
		p.Charge(&e.costs.NICRx, payload, n, tb)
		p.Charge(&e.costs.RxWait, payload, n, tb)  // driver→socket latency
		p.Charge(&e.costs.RxStack, payload, n, tb) // eBPF hop
		p.Charge(&e.costs.RxPoll, payload, n, tb)
		e.rxPackets.Add(1)
		e.rxBytes.Add(uint64(p.Len))
	}
	if n == 0 {
		e.emptyPolls.Add(1)
	}
	return n, nil
}

// WaitRecv blocks on the socket until frames are available (AF_XDP
// supports poll(2), which is what saves the spinning cores).
func (e *endpoint) WaitRecv(timeout time.Duration) error {
	if e.closed.Load() {
		return datapath.ErrClosed
	}
	if !e.cfg.Blocking {
		return nil
	}
	return e.backlog.Wait(e.cfg.Port, timeout)
}

// Close unbinds the socket; frames it still holds, and those in the RX
// ring, go back to the UMEM.
func (e *endpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		e.backlog.Release(e.cfg.Mem)
		e.cfg.Port.SetRxMemory(nil)
	}
	return nil
}
