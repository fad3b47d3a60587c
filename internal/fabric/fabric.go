// Package fabric is the virtual network substrate of the reproduction: NIC
// ports, point-to-point links and a store-and-forward switch, replacing the
// 100 Gbps Mellanox NICs (and, in the cloud testbed, the Dell Z9264F-ON
// switch) of the paper's testbeds (Table 2).
//
// The fabric really moves bytes between in-process "hosts", so all
// functional middleware behaviour (delivery, dispatch, loss, backpressure)
// is exercised for real. In parallel, every frame carries a virtual
// timestamp that the fabric advances by the modeled serialization time,
// propagation delay and switch latency, so experiments can report
// deterministic µs-scale latencies (see internal/timebase).
package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// Errors returned by the fabric.
var (
	// ErrPortClosed is returned when sending or receiving on a detached
	// port.
	ErrPortClosed = errors.New("fabric: port closed")
	// ErrNotAttached is returned when a port has no link.
	ErrNotAttached = errors.New("fabric: port not attached to a link")
)

// Breakdown accumulates where a frame's virtual time went, mirroring the
// stage split of the paper's Fig. 6 (send / network / receive / data
// processing).
type Breakdown struct {
	Send       time.Duration // sender-side CPU (app, runtime, driver)
	Network    time.Duration // serialization + propagation + switch
	Recv       time.Duration // receiver-side CPU (driver, runtime)
	Processing time.Duration // protocol/data processing (netstack etc.)
}

// Total returns the sum of all stages.
func (b Breakdown) Total() time.Duration {
	return b.Send + b.Network + b.Recv + b.Processing
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Send += o.Send
	b.Network += o.Network
	b.Recv += o.Recv
	b.Processing += o.Processing
}

// Frame is one Ethernet frame in flight, with its virtual-time annotations.
type Frame struct {
	// Data is the raw frame (Ethernet headers included). The fabric
	// copies at the wire, so the slice is owned by the receiver.
	Data []byte
	// VTime is the virtual time at which the frame becomes visible at
	// its current location (after transmission: arrival time at the
	// receiving NIC).
	VTime timebase.VTime
	// Breakdown accounts for where the virtual time was spent.
	Breakdown Breakdown
}

// LinkParams models one link.
type LinkParams struct {
	// Rate is the line rate. Zero means infinitely fast.
	Rate timebase.Rate
	// PropDelay is the one-way propagation (plus PHY) delay.
	PropDelay time.Duration
	// LossRate is the probability in [0,1] that a frame is silently
	// dropped, for failure-injection experiments.
	LossRate float64
	// Jitter adds a uniform ±Jitter perturbation to each frame's wire
	// latency, modeling the PHY/arbitration noise behind the quartile
	// whiskers of the paper's latency plots. Zero keeps the fabric
	// deterministic.
	Jitter time.Duration
	// MTU is the maximum IP packet size. Zero means JumboMTU (the
	// evaluation enables jumbo frames, §6.2).
	MTU int
}

func (p LinkParams) mtu() int {
	if p.MTU == 0 {
		return netstack.JumboMTU
	}
	return p.MTU
}

// DefaultLink reproduces the local testbed: two nodes directly
// interconnected at 100 Gbps.
var DefaultLink = LinkParams{
	Rate:      100 * timebase.Gbps,
	PropDelay: 450 * time.Nanosecond,
	MTU:       netstack.JumboMTU,
}

// SwitchParams models a store-and-forward switch.
type SwitchParams struct {
	// Latency is added per traversal; the paper measured 1.7 µs on the
	// CloudLab Dell Z9264F-ON.
	Latency time.Duration
}

// PortStats counts per-port activity.
type PortStats struct {
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	Dropped            uint64 // frames lost on the wire or on full RX queue
}

// Doorbell is a port's receive interrupt line: the owner of the port arms
// it with SetRxDoorbell and the fabric rings it once for every frame it
// queues on the port — the interrupt-mode RX a poll-mode driver enables
// when it goes idle (rte_eth_dev_rx_intr_enable, NAPI). Ring runs on the
// transmitting goroutine, so it must neither block nor allocate.
type Doorbell interface {
	//insane:hotpath
	Ring()
}

// Port is a NIC port attached to a host.
//
//insane:shared
type Port struct {
	mac  netstack.MAC  //insane:guardedby immutable after=AddHost
	ip   netstack.IPv4 //insane:guardedby immutable after=AddHost
	net  *Network      //insane:guardedby immutable after=AddHost
	name string        //insane:guardedby immutable after=AddHost

	rx     chan Frame  //insane:guardedby immutable after=AddHost
	closed atomic.Bool //insane:guardedby atomic

	// rxBell is the armed receive doorbell (nil = polled only). deliver
	// loads it after the frame is queued; a ring that loaded the pointer
	// just before SetRxDoorbell(nil) may still complete, so a Doorbell
	// must tolerate one late ring.
	rxBell atomic.Pointer[Doorbell] //insane:guardedby atomic

	// attachment: exactly one of peer / sw is set once connected.
	mu   sync.Mutex
	link LinkParams //insane:guardedby mu=mu
	peer *Port      //insane:guardedby mu=mu
	sw   *Switch    //insane:guardedby mu=mu
	rng  *rand.Rand //insane:guardedby mu=mu

	txFrames, rxFrames atomic.Uint64 //insane:guardedby atomic
	txBytes, rxBytes   atomic.Uint64 //insane:guardedby atomic
	dropped            atomic.Uint64 //insane:guardedby atomic
}

// SetRxDoorbell arms the port's receive doorbell; nil disarms it. Frames
// queued after a disarm returns ring nothing.
func (p *Port) SetRxDoorbell(d Doorbell) {
	if d == nil {
		p.rxBell.Store(nil)
		return
	}
	p.rxBell.Store(&d)
}

// MAC returns the port's Ethernet address.
func (p *Port) MAC() netstack.MAC { return p.mac }

// IP returns the host address bound to the port.
func (p *Port) IP() netstack.IPv4 { return p.ip }

// MTU returns the MTU of the attached link (JumboMTU if unattached).
func (p *Port) MTU() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.peer == nil && p.sw == nil {
		return netstack.JumboMTU
	}
	return p.link.mtu()
}

// Rate returns the line rate of the attached link.
func (p *Port) Rate() timebase.Rate {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.link.Rate
}

// Stats returns a snapshot of the port counters.
func (p *Port) Stats() PortStats {
	return PortStats{
		TxFrames: p.txFrames.Load(),
		RxFrames: p.rxFrames.Load(),
		TxBytes:  p.txBytes.Load(),
		RxBytes:  p.rxBytes.Load(),
		Dropped:  p.dropped.Load(),
	}
}

// Transmit sends one frame. data must be a full Ethernet frame; the fabric
// copies it (the "wire"), so the caller may reuse its buffer immediately —
// this is where a real NIC would DMA out of the registered memory region.
// vt is the virtual time at which the frame hits the wire. Transmission
// never blocks: if the receiver queue is full the frame is dropped, which
// matches the best-effort semantics of the paper (§5.2).
func (p *Port) Transmit(data []byte, vt timebase.VTime, bd Breakdown) error {
	if p.closed.Load() {
		return ErrPortClosed
	}
	p.mu.Lock()
	peer, sw, link, rng := p.peer, p.sw, p.link, p.rng
	p.mu.Unlock()
	if peer == nil && sw == nil {
		return ErrNotAttached
	}

	p.txFrames.Add(1)
	p.txBytes.Add(uint64(len(data)))

	// Wire model: serialization of frame + preamble/IFG, then
	// propagation, optionally perturbed by seeded jitter.
	wire := link.Rate.Transmission(len(data)+netstack.WireOverhead) + link.PropDelay
	if rng != nil && (link.LossRate > 0 || link.Jitter > 0) {
		p.mu.Lock()
		lost := link.LossRate > 0 && rng.Float64() < link.LossRate
		if link.Jitter > 0 {
			wire += time.Duration(rng.Int63n(int64(2*link.Jitter))) - link.Jitter
			if wire < 0 {
				wire = 0
			}
		}
		p.mu.Unlock()
		if lost {
			p.dropped.Add(1)
			return nil // silently lost, like a real wire
		}
	}

	f := Frame{
		Data:      append(make([]byte, 0, len(data)), data...),
		VTime:     vt.Add(wire),
		Breakdown: bd,
	}
	f.Breakdown.Network += wire

	if sw != nil {
		sw.forward(p, f)
		return nil
	}
	peer.deliver(f)
	return nil
}

// deliver enqueues a frame on the port's receive queue, dropping on
// overflow (the receiver cannot keep up: the paper's Fig. 8b regime), and
// rings the armed doorbell for every frame it queued.
//
//insane:hotpath
func (p *Port) deliver(f Frame) {
	if p.closed.Load() {
		p.dropped.Add(1)
		return
	}
	select {
	case p.rx <- f:
		p.rxFrames.Add(1)
		p.rxBytes.Add(uint64(len(f.Data)))
		if d := p.rxBell.Load(); d != nil {
			(*d).Ring()
		}
	default:
		p.dropped.Add(1)
	}
}

// TryRecv returns the next received frame without blocking.
func (p *Port) TryRecv() (Frame, bool) {
	select {
	case f, ok := <-p.rx:
		if !ok {
			return Frame{}, false
		}
		return f, true
	default:
		return Frame{}, false
	}
}

// Recv blocks until a frame arrives, the timeout elapses, or the port
// closes. A zero timeout blocks indefinitely.
func (p *Port) Recv(timeout time.Duration) (Frame, error) {
	if timeout <= 0 {
		f, ok := <-p.rx
		if !ok {
			return Frame{}, ErrPortClosed
		}
		return f, nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case f, ok := <-p.rx:
		if !ok {
			return Frame{}, ErrPortClosed
		}
		return f, nil
	case <-t.C:
		return Frame{}, fmt.Errorf("fabric: recv timeout after %v", timeout)
	}
}

// Close detaches the port; in-flight frames are dropped.
func (p *Port) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.rx)
	}
}

// rxQueueDepth bounds the per-port receive queue; a real NIC RX descriptor
// ring is of comparable size.
const rxQueueDepth = 4096

// Switch is a store-and-forward Ethernet switch with a static forwarding
// database built at connect time.
type Switch struct {
	name   string
	params SwitchParams

	mu  sync.RWMutex
	fdb map[netstack.MAC]*Port
}

// forward moves a frame from the ingress port to its destination(s).
func (s *Switch) forward(from *Port, f Frame) {
	f.VTime = f.VTime.Add(s.params.Latency)
	f.Breakdown.Network += s.params.Latency

	dst := netstack.MAC(f.Data[0:6])
	s.mu.RLock()
	defer s.mu.RUnlock()
	if dst.IsBroadcast() {
		for _, p := range s.fdb {
			if p != from {
				p.deliver(f)
			}
		}
		return
	}
	if p, ok := s.fdb[dst]; ok && p != from {
		p.deliver(f)
		return
	}
	from.dropped.Add(1) // unknown unicast: count against sender
}

// Network is a collection of hosts, links and switches.
type Network struct {
	mu       sync.Mutex
	ports    map[string]*Port
	switches []*Switch
	resolver *netstack.Resolver
	seed     int64
	nextMAC  uint32
}

// New returns an empty network. seed makes loss injection deterministic.
func New(seed int64) *Network {
	return &Network{
		ports:    make(map[string]*Port),
		resolver: netstack.NewResolver(),
		seed:     seed,
	}
}

// AddHost creates a single-port host with the given name and IP address.
func (n *Network) AddHost(name string, ip netstack.IPv4) (*Port, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.ports[name]; dup {
		return nil, fmt.Errorf("fabric: duplicate host %q", name)
	}
	n.nextMAC++
	mac := netstack.MAC{0x02, 0, 0, byte(n.nextMAC >> 16), byte(n.nextMAC >> 8), byte(n.nextMAC)}
	p := &Port{
		mac:  mac,
		ip:   ip,
		net:  n,
		name: name,
		rx:   make(chan Frame, rxQueueDepth),
	}
	n.ports[name] = p
	n.resolver.Add(ip, mac)
	return p, nil
}

// Resolver returns the IP→MAC table for the whole network (static ARP).
func (n *Network) Resolver() *netstack.Resolver { return n.resolver }

// ConnectDirect wires two ports back to back (the local testbed topology).
func (n *Network) ConnectDirect(a, b *Port, link LinkParams) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range []*Port{a, b} {
		p.mu.Lock()
		attached := p.peer != nil || p.sw != nil
		p.mu.Unlock()
		if attached {
			return fmt.Errorf("fabric: port %q already attached", p.name)
		}
	}
	a.mu.Lock()
	a.peer, a.link, a.rng = b, link, rand.New(rand.NewSource(n.seed+int64(a.mac[5])))
	a.mu.Unlock()
	b.mu.Lock()
	b.peer, b.link, b.rng = a, link, rand.New(rand.NewSource(n.seed+int64(b.mac[5])))
	b.mu.Unlock()
	return nil
}

// AddSwitch creates a switch (the public-cloud testbed topology).
func (n *Network) AddSwitch(name string, params SwitchParams) *Switch {
	n.mu.Lock()
	defer n.mu.Unlock()
	sw := &Switch{name: name, params: params, fdb: make(map[netstack.MAC]*Port)}
	n.switches = append(n.switches, sw)
	return sw
}

// ConnectToSwitch attaches a port to a switch.
func (n *Network) ConnectToSwitch(p *Port, sw *Switch, link LinkParams) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.peer != nil || p.sw != nil {
		return fmt.Errorf("fabric: port %q already attached", p.name)
	}
	p.sw, p.link, p.rng = sw, link, rand.New(rand.NewSource(n.seed+int64(p.mac[5])))
	sw.mu.Lock()
	sw.fdb[p.mac] = p
	sw.mu.Unlock()
	return nil
}
