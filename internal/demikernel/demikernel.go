// Package demikernel reimplements the Demikernel baseline the paper
// compares against (Zhang et al., SOSP '21): a library-OS datapath
// architecture with a queue-descriptor API, linked into the application
// process. Two library OSes are provided, matching the paper's §6:
//
//   - Catnap: network operations map to kernel sockets;
//   - Catnip: network operations map to DPDK.
//
// The two structural differences from INSANE that the paper's results
// hinge on are reproduced faithfully:
//
//  1. No runtime IPC hop — the library shares the application's address
//     space, so per-packet overhead is lower (Fig. 7);
//  2. No sender batching — Catnip "is optimized for latency and sends one
//     packet per time on the network", which caps its throughput well
//     below INSANE's opportunistic batching (Fig. 8a).
package demikernel

import (
	"errors"
	"fmt"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// Variant selects the library OS.
type Variant int

// The library OSes of the paper's evaluation.
const (
	// Catnap maps I/O to kernel sockets.
	Catnap Variant = iota + 1
	// Catnip maps I/O to DPDK.
	Catnip
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case Catnap:
		return "catnap"
	case Catnip:
		return "catnip"
	default:
		return "unknown"
	}
}

// Errors returned by the library.
var (
	ErrBadQD    = errors.New("demikernel: invalid queue descriptor")
	ErrNotBound = errors.New("demikernel: socket not bound")
	ErrTimeout  = errors.New("demikernel: wait timeout")
)

// QD is a queue descriptor (the Demikernel handle for an I/O queue).
type QD int

// Result is the completion of a pop operation.
type Result struct {
	// Payload is the received datagram.
	Payload []byte
	// From is the sender address.
	From netstack.Endpoint
	// VTime is the accumulated virtual latency of the datagram.
	VTime timebase.VTime
	// Breakdown splits VTime by pipeline stage.
	Breakdown timebase.Breakdown
}

// Config configures a library OS instance.
type Config struct {
	// Port is the NIC port the library drives.
	Port *fabric.Port
	// Resolver is the fabric address table.
	Resolver *netstack.Resolver
	// Testbed selects the calibrated cost environment.
	Testbed model.Testbed
	// Blocking selects blocking receives for Catnap (the paper measures
	// Catnap against both socket modes).
	Blocking bool
}

// LibOS is one Demikernel instance: single-threaded, like the original's
// run-to-completion model.
type LibOS struct {
	variant Variant
	cfg     Config
	costs   model.LibCosts
	mm      *mempool.Manager
	ep      *datapath.Endpoint

	sockets map[QD]*socket
	nextQD  QD
}

// socket is one UDP queue.
type socket struct {
	local  netstack.Endpoint
	remote netstack.Endpoint
	bound  bool
}

// New creates a library OS of the given variant.
func New(v Variant, cfg Config) (*LibOS, error) {
	if cfg.Port == nil || cfg.Resolver == nil {
		return nil, errors.New("demikernel: incomplete config")
	}
	mm, err := mempool.NewManager(mempool.Config{})
	if err != nil {
		return nil, err
	}
	l := &LibOS{
		variant: v,
		cfg:     cfg,
		mm:      mm,
		sockets: make(map[QD]*socket),
	}
	switch v {
	case Catnap:
		l.costs = model.CatnapLib()
	case Catnip:
		l.costs = model.CatnipLib()
	default:
		return nil, fmt.Errorf("demikernel: unknown variant %d", v)
	}
	return l, nil
}

// Socket creates a UDP queue and returns its descriptor.
func (l *LibOS) Socket() (QD, error) {
	l.nextQD++
	l.sockets[l.nextQD] = &socket{}
	return l.nextQD, nil
}

// Bind attaches the queue to a local address, opening the underlying
// datapath.
func (l *LibOS) Bind(qd QD, local netstack.Endpoint) error {
	s, ok := l.sockets[qd]
	if !ok {
		return ErrBadQD
	}
	if l.ep == nil {
		dcfg := datapath.Config{
			Port:     l.cfg.Port,
			Resolver: l.cfg.Resolver,
			Local:    local,
			Mem:      l.mm,
			Testbed:  l.cfg.Testbed,
			Blocking: l.cfg.Blocking,
			Burst:    1, // Demikernel sends/receives one packet per time
		}
		tech := model.TechKernelUDP // Catnap
		if l.variant == Catnip {
			tech = model.TechDPDK
		}
		ep, err := datapath.Open(tech, dcfg)
		if err != nil {
			return err
		}
		l.ep = ep
	}
	s.local = local
	s.bound = true
	return nil
}

// Connect sets the default destination of the queue.
func (l *LibOS) Connect(qd QD, remote netstack.Endpoint) error {
	s, ok := l.sockets[qd]
	if !ok {
		return ErrBadQD
	}
	s.remote = remote
	return nil
}

// Push sends payload to the queue's connected destination. The libOS
// overhead is charged on the pushing side; there is no batching.
func (l *LibOS) Push(qd QD, payload []byte) error {
	return l.PushAt(qd, payload, 0, timebase.Breakdown{})
}

// PushAt sends payload seeding the packet's virtual clock (echo servers
// continue the request's clock for RTT accounting).
func (l *LibOS) PushAt(qd QD, payload []byte, at timebase.VTime, bd timebase.Breakdown) error {
	s, ok := l.sockets[qd]
	if !ok {
		return ErrBadQD
	}
	if !s.bound || l.ep == nil {
		return ErrNotBound
	}
	slot, buf, err := l.mm.Get(datapath.Headroom+len(payload), mempool.NoOwner)
	if err != nil {
		return err
	}
	defer l.mm.Release(slot)
	copy(buf[datapath.Headroom:], payload)
	pkt := &datapath.Packet{
		Slot: slot, Buf: buf,
		Off: datapath.Headroom, Len: len(payload),
		Src: s.local, VTime: at, Breakdown: bd,
	}
	pkt.Charge(&l.costs.PerSide, len(payload), 1, &l.cfg.Testbed)

	if l.variant == Catnip {
		// Catnip runs its own stack: frame in place (zero-copy), one
		// packet per send.
		dstMAC, err := l.cfg.Resolver.Resolve(s.remote.IP)
		if err != nil {
			return err
		}
		n, err := netstack.EncodeUDP(buf, netstack.FrameMeta{
			SrcMAC: l.cfg.Port.MAC(), DstMAC: dstMAC,
			Src: s.local, Dst: s.remote,
		}, len(payload), l.cfg.Port.MTU())
		if err != nil {
			return err
		}
		pkt.Off, pkt.Len, pkt.Framed = 0, n, true
	}
	_, err = l.ep.Send([]*datapath.Packet{pkt}, s.remote)
	return err
}

// Pop receives one datagram from the queue, waiting up to timeout (zero
// blocks the busy-poll loop until data shows up, without deadline).
func (l *LibOS) Pop(qd QD, timeout time.Duration) (Result, error) {
	s, ok := l.sockets[qd]
	if !ok {
		return Result{}, ErrBadQD
	}
	if !s.bound || l.ep == nil {
		return Result{}, ErrNotBound
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	var pkts [1]datapath.Packet // Demikernel receives one packet per time
	for {
		if l.cfg.Blocking {
			if err := l.ep.WaitRecv(timeout); err != nil {
				return Result{}, ErrTimeout
			}
		}
		n, err := l.ep.Poll(pkts[:])
		if err != nil {
			return Result{}, err
		}
		if n > 0 {
			return l.complete(&pkts[0])
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return Result{}, ErrTimeout
		}
	}
}

// complete finishes a pop: Catnip parses its own frames; both variants
// charge the libOS overhead on the popping side.
func (l *LibOS) complete(pkt *datapath.Packet) (Result, error) {
	defer l.mm.Release(pkt.Slot)
	payloadView := pkt.Bytes()
	from := pkt.Src
	if pkt.Framed {
		meta, payload, err := netstack.DecodeUDP(payloadView)
		if err != nil {
			return Result{}, err
		}
		payloadView = payload
		from = meta.Src
	}
	pkt.Charge(&l.costs.PerSide, len(payloadView), 1, &l.cfg.Testbed)
	out := Result{
		Payload:   append([]byte(nil), payloadView...),
		From:      from,
		VTime:     pkt.VTime,
		Breakdown: pkt.Breakdown,
	}
	return out, nil
}

// Close releases the endpoint.
func (l *LibOS) Close() error {
	if l.ep != nil {
		return l.ep.Close()
	}
	return nil
}
