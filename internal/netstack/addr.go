// Package netstack is INSANE's minimal userspace network protocol stack:
// the "packet processing engine" of §5.3. Kernel-bypassing datapaths (DPDK,
// XDP) hand raw Ethernet frames to and from the NIC, so the middleware must
// build and parse Ethernet/IPv4/UDP headers itself; kernel-based UDP and
// RDMA skip this engine (the kernel or the NIC does the work).
//
// The stack is deliberately minimal (the paper: "INSANE defines a custom and
// minimal network stack that can introduce only ns-scale overhead on packet
// processing"): no IP fragmentation (jumbo frames are used instead, §8),
// no reassembly, no retransmission — INSANE is best-effort by design (§5.2).
package netstack

import (
	"errors"
	"fmt"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in the canonical colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IPv4 is a 32-bit IPv4 address.
type IPv4 [4]byte

// String renders the address in dotted-quad form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Endpoint is an IPv4 address/UDP port pair.
type Endpoint struct {
	IP   IPv4
	Port uint16
}

// String renders the endpoint as ip:port.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.IP, e.Port) }

// Resolver maps IPv4 addresses to MAC addresses. On a real deployment this
// is ARP; the reproduction uses a static table populated from the fabric
// topology, which matches how DPDK test rigs are usually configured.
type Resolver struct {
	table map[IPv4]MAC
}

// NewResolver returns an empty resolver.
func NewResolver() *Resolver { return &Resolver{table: make(map[IPv4]MAC)} }

// Add records a static IP→MAC binding.
func (r *Resolver) Add(ip IPv4, mac MAC) { r.table[ip] = mac }

// ErrNoMACBinding is returned by Resolve for an address with no static
// binding. A static sentinel: the datapath resolves per packet, and an
// unroutable destination must not drive per-packet error formatting.
var ErrNoMACBinding = errors.New("netstack: no MAC binding")

// Resolve looks up the MAC for ip.
//
//insane:hotpath
func (r *Resolver) Resolve(ip IPv4) (MAC, error) {
	mac, ok := r.table[ip]
	if !ok {
		return MAC{}, ErrNoMACBinding
	}
	return mac, nil
}
