// Package dpdk implements the DPDK datapath plugin: the "fast path" of
// INSANE (§5.2: DPDK is chosen when acceleration is requested and resource
// usage is not a concern).
//
// The plugin models a poll-mode driver on a kernel-bypassed NIC: the
// runtime's polling thread is the lcore, packets are moved in bursts
// (rte_eth_tx_burst/rx_burst semantics), memory comes from the runtime's
// registered pools, and there are no kernel crossings. Packets on this
// path are *framed*: the runtime's packet processing engine builds the
// Ethernet/IPv4/UDP headers into the slot headroom, so the plugin DMAs the
// frame straight from application memory (zero-copy, Table 1).
package dpdk

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// Plugin creates DPDK endpoints on hosts whose NIC exposes a PMD.
type Plugin struct{}

var _ datapath.Plugin = Plugin{}

// Tech returns model.TechDPDK.
func (Plugin) Tech() model.Tech { return model.TechDPDK }

// Info returns the Table 1 record for DPDK.
func (Plugin) Info() model.TechInfo { return model.Info(model.TechDPDK) }

// Available reports whether the host has DPDK support.
func (Plugin) Available(caps datapath.Caps) bool { return caps.DPDK }

// Open takes over the NIC port in poll mode and registers the memory
// pools with it.
func (Plugin) Open(cfg datapath.Config) (datapath.Endpoint, error) {
	if cfg.Port == nil || cfg.Mem == nil {
		return nil, fmt.Errorf("dpdk: incomplete config")
	}
	cfg.Port.SetRxMemory(cfg.Mem)
	return &endpoint{cfg: cfg, costs: model.DPDK()}, nil
}

// endpoint models one PMD-driven port. Not safe for concurrent use: one
// lcore (polling thread) owns it, as in DPDK's run-to-completion model.
type endpoint struct {
	cfg    datapath.Config
	costs  model.TechCosts
	closed atomic.Bool

	txPackets, rxPackets atomic.Uint64
	txBytes, rxBytes     atomic.Uint64
	drops                atomic.Uint64
	emptyPolls           atomic.Uint64
}

// Tech returns model.TechDPDK.
func (e *endpoint) Tech() model.Tech { return model.TechDPDK }

// MTU returns the maximum message payload (jumbo frames enabled, §6.2).
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

// Send transmits a burst of framed packets (tx_burst). The per-burst
// doorbell cost amortizes over the burst — INSANE's opportunistic batching
// leans on exactly this property (§6.2).
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
		p.Charge(&e.costs.TxDriver, payload, burst, tb)
		p.Charge(&e.costs.TxComplete, payload, burst, tb)
		p.Charge(&e.costs.NICTx, payload, burst, tb)
		if err := e.cfg.Port.Transmit(p.Bytes(), p.VTime, p.Breakdown); err != nil {
			//lint:ignore insanevet/hotpathcheck cold error path: the port was closed or never attached
			return i, fmt.Errorf("dpdk: %w", err)
		}
		e.txPackets.Add(1)
		e.txBytes.Add(uint64(p.Len))
	}
	return len(pkts), nil
}

// errUnframed rejects a packet the packet processing engine did not frame.
var errUnframed = errors.New("dpdk: unframed packet; the packet processing engine must encode first")

// Poll busy-polls the RX ring (rx_burst): frames are returned still framed
// for the packet processing engine, in the memory-pool slots where the NIC
// "DMAed" them — the wire copy already landed there.
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
		frame, ok := e.cfg.Port.TryRecv()
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
		p.Charge(&e.costs.RxPoll, payload, n, tb)
		e.rxPackets.Add(1)
		e.rxBytes.Add(uint64(p.Len))
	}
	if n == 0 {
		e.emptyPolls.Add(1) // busy-poll burn: DPDK's CPU cost (Table 1)
	}
	return n, nil
}

// WaitRecv returns immediately: a PMD never blocks, it spins.
func (e *endpoint) WaitRecv(time.Duration) error {
	if e.closed.Load() {
		return datapath.ErrClosed
	}
	return nil
}

// Close releases the port back from poll mode; frames still in its RX
// ring go back to the pools.
func (e *endpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		e.cfg.Port.SetRxMemory(nil)
	}
	return nil
}
