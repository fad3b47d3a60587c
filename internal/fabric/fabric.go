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

	"github.com/insane-mw/insane/internal/mempool"
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

// Frame is one received Ethernet frame, with its virtual-time annotations.
type Frame struct {
	// Data is the raw frame (Ethernet headers included), copied at the
	// wire to offset 0 of Slot; cap(Data) is the slot's size.
	Data []byte
	// Slot is the slot of the port's receive memory that holds Data. The
	// receiver releases it.
	Slot mempool.SlotID
	// VTime is the virtual time at which the frame arrived at the
	// receiving NIC.
	VTime timebase.VTime
	// Breakdown accounts for where the virtual time was spent.
	Breakdown timebase.Breakdown
}

// rxDesc is one entry of a port's receive queue: the frame is the first n
// bytes of slot, in the port's receive memory. Every port carries
// rxQueueDepth of them, so it holds nothing else (TestRxDescriptorSize):
// the frame's virtual clock is in the slot's mempool.Header.
type rxDesc struct {
	slot mempool.SlotID
	n    uint32
}

// release gives a descriptor's slot back to the port's receive memory.
//
//insane:hotpath
//insane:release resource=mem-slot
func (p *Port) release(d rxDesc) {
	_ = p.rxMem.Load().Release(d.slot) // the slot was borrowed by deliver and never shared: Release cannot fail
}

// frame turns a dequeued descriptor into the Frame handed to the receiver.
//
//insane:hotpath
func (p *Port) frame(d rxDesc) Frame {
	mm := p.rxMem.Load()
	buf, _ := mm.Buf(d.slot, mempool.NoOwner) // a queued slot holds the reference deliver took: Buf cannot fail
	h := mm.Header(d.slot)
	return Frame{Data: buf[:d.n], Slot: d.slot, VTime: h.VTime, Breakdown: h.Breakdown}
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

// PortStats counts per-port activity on the receive side and the losses;
// what was transmitted is the sending endpoint's to count (datapath.Stats).
type PortStats struct {
	// RxFrames counts frames queued for the receiver.
	RxFrames uint64
	// Dropped counts frames lost on the wire, to an unknown address, to a
	// port with no receive memory, on a full RX queue, or queued on a port
	// that was then closed.
	Dropped uint64
	// RxNoMem counts frames that arrived while the registered receive
	// memory had no free slot for them.
	RxNoMem uint64
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

// attachment is what a port is wired to, immutable once published:
// exactly one of peer / sw is set.
type attachment struct {
	link LinkParams
	peer *Port
	sw   *Switch
	// noisy marks a link with loss or jitter: only those frames draw from
	// the port's seeded rng, under its mutex.
	noisy bool
}

// Port is a NIC port attached to a host.
//
//insane:shared
type Port struct {
	mac  netstack.MAC  //insane:guardedby immutable after=AddHost
	ip   netstack.IPv4 //insane:guardedby immutable after=AddHost
	net  *Network      //insane:guardedby immutable after=AddHost
	name string        //insane:guardedby immutable after=AddHost

	rx     chan rxDesc //insane:guardedby immutable after=AddHost
	closed atomic.Bool //insane:guardedby atomic

	// rxMem is the registered receive memory, stored once by SetRxMemory
	// (nil = none: the port drops what arrives).
	rxMem atomic.Pointer[mempool.Manager] //insane:guardedby atomic

	// rxBell is the armed receive doorbell (nil = polled only). deliver
	// loads it after the frame is queued; a ring that loaded the pointer
	// just before SetRxDoorbell(nil) may still complete, so a Doorbell
	// must tolerate one late ring.
	rxBell atomic.Pointer[Doorbell] //insane:guardedby atomic

	// att is published once, by ConnectDirect or ConnectToSwitch.
	att atomic.Pointer[attachment] //insane:guardedby atomic

	// mu serializes attaching the port and draws from rng.
	mu  sync.Mutex
	rng *rand.Rand //insane:guardedby mu=mu

	rxFrames, dropped, rxNoMem atomic.Uint64 //insane:guardedby atomic
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

// SetRxMemory registers mm as the port's receive memory — the region a
// NIC DMAs into: from now on the wire copy of every arriving frame lands
// in a slot of mm, which the receiver owns and releases. A port registers
// once, and keeps the registration until Close; a second call fails.
func (p *Port) SetRxMemory(mm *mempool.Manager) error {
	if mm == nil || !p.rxMem.CompareAndSwap(nil, mm) {
		return fmt.Errorf("fabric: port %q: receive memory is registered once", p.name)
	}
	return nil
}

// MAC returns the port's Ethernet address.
func (p *Port) MAC() netstack.MAC { return p.mac }

// IP returns the host address bound to the port.
func (p *Port) IP() netstack.IPv4 { return p.ip }

// MTU returns the MTU of the attached link (JumboMTU if unattached).
func (p *Port) MTU() int {
	att := p.att.Load()
	if att == nil {
		return netstack.JumboMTU
	}
	return att.link.mtu()
}

// Stats returns a snapshot of the port counters.
func (p *Port) Stats() PortStats {
	return PortStats{
		RxFrames: p.rxFrames.Load(),
		Dropped:  p.dropped.Load(),
		RxNoMem:  p.rxNoMem.Load(),
	}
}

// Transmit sends one frame. data must be a full Ethernet frame; the fabric
// copies it (the "wire") into the receiving port's memory before it
// returns, so the caller may reuse its buffer immediately — this is where
// a real NIC would DMA out of the registered memory region and the peer's
// NIC into its own. vt is the virtual time at which the frame hits the
// wire. Transmission never blocks: if the receiver has no room the frame
// is dropped, which matches the best-effort semantics of the paper (§5.2).
//
//insane:hotpath
func (p *Port) Transmit(data []byte, vt timebase.VTime, bd timebase.Breakdown) error {
	if p.closed.Load() {
		return ErrPortClosed
	}
	att := p.att.Load()
	if att == nil {
		return ErrNotAttached
	}

	// Wire model: serialization of frame + preamble/IFG, then
	// propagation, optionally perturbed by seeded jitter.
	wire := att.link.Rate.Transmission(len(data)+netstack.WireOverhead) + att.link.PropDelay
	if att.noisy {
		var lost bool
		if wire, lost = p.perturb(&att.link, wire); lost {
			p.dropped.Add(1)
			return nil // silently lost, like a real wire
		}
	}
	vt = vt.Add(wire)
	bd.Network += wire

	if att.sw != nil {
		att.sw.forward(p, data, vt, bd)
		return nil
	}
	att.peer.deliver(data, vt, bd)
	return nil
}

// perturb applies a noisy link's seeded loss and jitter to one frame's
// wire time.
//
//insane:coldpath fault-injection links only: the seeded rng is drawn under the port mutex
func (p *Port) perturb(link *LinkParams, wire time.Duration) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lost := link.LossRate > 0 && p.rng.Float64() < link.LossRate
	if link.Jitter > 0 {
		wire += time.Duration(p.rng.Int63n(int64(2*link.Jitter))) - link.Jitter
		if wire < 0 {
			wire = 0
		}
	}
	return wire, lost
}

// deliver is the receiving half of the wire: it copies the frame into a
// slot of the port's registered memory and the frame's clock into the
// slot's header, queues the descriptor and rings the armed doorbell. A
// frame the port cannot take — closed, no memory registered, no free
// slot, RX queue full (the receiver cannot keep up: the paper's Fig. 8b
// regime) — is dropped and counted, and its slot goes back.
//
//insane:hotpath
func (p *Port) deliver(data []byte, vt timebase.VTime, bd timebase.Breakdown) {
	mm := p.rxMem.Load()
	if mm == nil || p.closed.Load() {
		p.dropped.Add(1)
		return
	}
	slot, buf, err := mm.Get(len(data), mempool.NoOwner)
	if err != nil {
		p.rxNoMem.Add(1)
		return
	}
	copy(buf, data)
	*mm.Header(slot) = mempool.Header{VTime: vt, Breakdown: bd}
	d := rxDesc{slot: slot, n: uint32(len(data))}
	if !p.enqueue(d) {
		p.dropped.Add(1)
		p.release(d)
		return
	}
	p.rxFrames.Add(1)
	// Close may have drained the queue between the check of closed and
	// the enqueue, leaving this frame's slot stranded: drain again. Close
	// stores before it drains and this side queues before it re-reads, so
	// one of the two drains sees the frame.
	if p.closed.Load() {
		p.drainRx()
		return
	}
	if bell := p.rxBell.Load(); bell != nil {
		(*bell).Ring()
	}
}

// enqueue appends one descriptor to the RX queue without blocking; false
// means the queue is full and the caller still owns the slot.
//
//insane:hotpath
//insane:transfer resource=mem-slot on=true
func (p *Port) enqueue(d rxDesc) bool {
	select {
	case p.rx <- d:
		return true
	default:
		return false
	}
}

// drainRx releases every queued frame and counts it as dropped.
//
//insane:coldpath teardown only
func (p *Port) drainRx() {
	for {
		select {
		case d := <-p.rx:
			p.release(d)
			p.dropped.Add(1)
		default:
			return
		}
	}
}

// TryRecv returns the next received frame without blocking. The caller
// owns the frame's slot.
//
//insane:hotpath
//insane:acquire resource=mem-slot on=true
func (p *Port) TryRecv() (Frame, bool) {
	select {
	case d := <-p.rx:
		return p.frame(d), true
	default:
		return Frame{}, false
	}
}

// Queued reports how many received frames wait in the port's RX queue. It
// takes nothing and locks nothing: a poller reads it to skip an empty
// port. The fabric queues a frame before it rings, so a queue read as
// empty after the doorbell was armed is followed by a ring.
//
//insane:hotpath
func (p *Port) Queued() int { return len(p.rx) }

// Bell is the Doorbell of a receiver that sleeps until traffic arrives
// instead of polling (a blocking socket, poll(2) on an AF_XDP socket): one
// buffered signal, set for every frame the port queues. A set bell says a
// frame arrived since the last wait, not that one is still queued.
type Bell chan struct{}

// Ring sets the bell; it never blocks.
//
//insane:hotpath
func (b Bell) Ring() {
	select {
	case b <- struct{}{}:
	default:
	}
}

// Wait blocks until at least one frame is queued on p, whose armed doorbell
// b is, or the timeout elapses (zero: no deadline); a closed port fails it
// with ErrPortClosed. It takes nothing: the frame stays queued for the next
// TryRecv. The fabric queues a frame before it rings, so a queue read as
// empty is followed by a ring; a ring left over from a frame already taken
// costs one more look.
func (b Bell) Wait(p *Port, timeout time.Duration) error {
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		if p.closed.Load() {
			return ErrPortClosed
		}
		if p.Queued() > 0 {
			return nil
		}
		select {
		case <-b:
		case <-expired:
			return fmt.Errorf("fabric: no frame within %v", timeout)
		}
	}
}

// Close detaches the port: queued frames are dropped and their slots
// released, and from then on a frame that arrives is dropped and takes
// nothing. The queue itself stays open — a peer may be about to send on
// it — and deliver drops on the closed flag instead. Nothing rings for
// it: a receiver asleep on the doorbell is the port's owner, who is the
// one closing it.
func (p *Port) Close() {
	if p.closed.CompareAndSwap(false, true) {
		p.drainRx()
	}
}

// rxQueueDepth bounds the per-port receive queue; a real NIC RX descriptor
// ring is of comparable size. It is also how many slots of the registered
// memory a receiver that stopped polling can pin (DESIGN.md, "Remote
// path").
const rxQueueDepth = 4096

// Switch is a store-and-forward Ethernet switch with a static forwarding
// database built at connect time.
//
//insane:shared
type Switch struct {
	name   string       //insane:guardedby immutable after=AddSwitch
	params SwitchParams //insane:guardedby immutable after=AddSwitch

	// fdb is the published forwarding database: ConnectToSwitch swaps in a
	// fresh copy under mu, forward reads it without locking.
	mu  sync.Mutex
	fdb atomic.Pointer[map[netstack.MAC]*Port] //insane:guardedby rcu=learn
}

// learn publishes a forwarding database extended with one port.
func (s *Switch) learn(p *Port) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.fdb.Load()
	fdb := make(map[netstack.MAC]*Port, len(old)+1)
	for mac, port := range old {
		fdb[mac] = port
	}
	fdb[p.mac] = p
	s.fdb.Store(&fdb)
}

// forward moves a frame from the ingress port to its destination(s); a
// broadcast is copied once into each destination port's memory.
//
//insane:hotpath
func (s *Switch) forward(from *Port, data []byte, vt timebase.VTime, bd timebase.Breakdown) {
	vt = vt.Add(s.params.Latency)
	bd.Network += s.params.Latency

	dst := netstack.MAC(data[0:6])
	fdb := *s.fdb.Load()
	if dst.IsBroadcast() {
		//insane:bounded by=one entry per port attached to the switch
		for _, p := range fdb {
			if p != from {
				p.deliver(data, vt, bd)
			}
		}
		return
	}
	if p, ok := fdb[dst]; ok && p != from {
		p.deliver(data, vt, bd)
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
		rx:   make(chan rxDesc, rxQueueDepth),
	}
	n.ports[name] = p
	n.resolver.Add(ip, mac)
	return p, nil
}

// Resolver returns the IP→MAC table for the whole network (static ARP).
func (n *Network) Resolver() *netstack.Resolver { return n.resolver }

// attach publishes a port's attachment and seeds its rng; false means
// the port is already attached. Callers hold n.mu.
func (n *Network) attach(p *Port, att attachment) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.att.Load() != nil {
		return false
	}
	att.noisy = att.link.LossRate > 0 || att.link.Jitter > 0
	p.rng = rand.New(rand.NewSource(n.seed + int64(p.mac[5])))
	p.att.Store(&att)
	return true
}

// ConnectDirect wires two ports back to back (the local testbed topology).
func (n *Network) ConnectDirect(a, b *Port, link LinkParams) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b.att.Load() != nil {
		return fmt.Errorf("fabric: port %q already attached", b.name)
	}
	if !n.attach(a, attachment{link: link, peer: b}) {
		return fmt.Errorf("fabric: port %q already attached", a.name)
	}
	n.attach(b, attachment{link: link, peer: a})
	return nil
}

// AddSwitch creates a switch (the public-cloud testbed topology).
func (n *Network) AddSwitch(name string, params SwitchParams) *Switch {
	n.mu.Lock()
	defer n.mu.Unlock()
	sw := &Switch{name: name, params: params}
	sw.fdb.Store(&map[netstack.MAC]*Port{})
	n.switches = append(n.switches, sw)
	return sw
}

// ConnectToSwitch attaches a port to a switch.
func (n *Network) ConnectToSwitch(p *Port, sw *Switch, link LinkParams) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.attach(p, attachment{link: link, sw: sw}) {
		return fmt.Errorf("fabric: port %q already attached", p.name)
	}
	sw.learn(p)
	return nil
}
