// Package datapath is the boundary between the INSANE runtime and the
// end-host networking technologies (§5.3: "each plugin, one per available
// network acceleration technique, must define a send and a receive
// operation").
//
// In this reproduction every technology runs over the virtual fabric, so
// the four datapaths are one Endpoint (endpoint.go) — one Send, one Poll —
// configured by what the technologies really differ in: who builds the
// frame, which calibrated costs a packet is charged, whether those
// amortize over a burst, whether a receive may block, and how many
// receives are posted. Technologies that need a userspace network stack
// (DPDK, XDP) exchange *framed* packets — the runtime's packet processing
// engine builds and parses the Ethernet/IPv4/UDP headers — while kernel
// UDP and RDMA accept bare messages because the kernel or the NIC
// implements the protocols.
//
// Every packet carries a virtual timestamp and a Fig. 6-style breakdown;
// the endpoint charges the technology's calibrated model costs as the
// packet crosses it (see internal/model). The Packet is the unit exchanged
// between the runtime and an endpoint and nothing more: what the runtime
// needs to schedule or settle a message travels in the runtime's own
// token, not here.
package datapath

import (
	"errors"

	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// Headroom is the slot space reserved in front of every message so that
// protocol headers can be prepended without copying, exactly like mbuf
// headroom in DPDK.
const Headroom = netstack.HeadersLen

// Errors returned by endpoints.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("datapath: endpoint closed")
	// ErrTooLarge is returned when a message exceeds the path MTU; INSANE
	// does not fragment (§8: end-to-end zero copy), callers must use
	// jumbo-frame slots or application-level fragmentation.
	ErrTooLarge = errors.New("datapath: message exceeds MTU")
)

// Packet is the unit exchanged between the runtime and an endpoint.
type Packet struct {
	// Slot backs Buf when the packet's memory comes from the runtime
	// memory manager (NoSlot for transient buffers).
	Slot mempool.SlotID
	// Buf is the full backing buffer; the message occupies
	// Buf[Off : Off+Len].
	Buf []byte
	Off int
	Len int
	// Framed marks that Buf[Off:Off+Len] is a complete Ethernet frame
	// (produced or consumed by the packet processing engine).
	Framed bool
	// Src and Dst address the flow at UDP granularity.
	Src, Dst netstack.Endpoint
	// VTime is the accumulated virtual timestamp of the packet.
	VTime timebase.VTime
	// Breakdown accounts the virtual time by Fig. 6 stage.
	Breakdown timebase.Breakdown
}

// Bytes returns the message (or frame) view of the packet.
func (p *Packet) Bytes() []byte { return p.Buf[p.Off : p.Off+p.Len] }

// Charge adds a model component's latency cost to the packet's virtual
// clock and breakdown, amortizing burstable work over burst packets. It
// runs several times per packet on every technology, so the component and
// the testbed come by pointer.
//
//insane:hotpath
func (p *Packet) Charge(c *model.Component, payload, burst int, tb *model.Testbed) {
	if c.OccupancyOnly {
		// Off the latency critical path: no virtual time charge.
		return
	}
	d := c.Occupancy(payload, burst, tb) + tb.Scale(c.Class, c.LatencyOnly)
	p.VTime = p.VTime.Add(d)
	switch c.Category {
	case model.CatSend:
		p.Breakdown.Send += d
	case model.CatNetwork:
		p.Breakdown.Network += d
	case model.CatRecv:
		p.Breakdown.Recv += d
	case model.CatProcessing:
		p.Breakdown.Processing += d
	}
}

// Config configures one endpoint.
type Config struct {
	// Port is the fabric NIC port the endpoint drives.
	Port *fabric.Port
	// Resolver maps destination IPs to MACs (static ARP).
	Resolver *netstack.Resolver
	// Local is the endpoint's own UDP address for demultiplexing.
	Local netstack.Endpoint
	// Mem is the memory manager the endpoint receives into: Open
	// registers it with Port (the stand-in for registering the pools with
	// the NIC for DMA), so every received packet already sits in one of
	// its slots, until Close closes the port.
	Mem *mempool.Manager
	// Testbed selects the cost scaling environment.
	Testbed model.Testbed
	// Burst caps how many packets one Send/Poll call moves. Zero means
	// model.DefaultBurst.
	Burst int
	// Blocking selects blocking receive semantics where the technology
	// offers them (kernel UDP, XDP); busy-polling technologies ignore it.
	Blocking bool
}

// EffectiveBurst returns the configured burst, defaulted.
func (c Config) EffectiveBurst() int {
	if c.Burst <= 0 {
		return model.DefaultBurst
	}
	return c.Burst
}

// Stats counts endpoint activity. Every frame an endpoint takes off its
// port is delivered or counted here under the reason it was dropped.
type Stats struct {
	TxPackets, RxPackets uint64
	// Malformed counts frames a self-demultiplexing technology (kernel
	// UDP, RDMA) could not parse or that were addressed to another UDP
	// port; on the framed technologies the runtime's packet processing
	// engine makes the same check and keeps the count.
	Malformed uint64
	// RNRDrops counts messages refused receiver-not-ready: they arrived
	// while no receive buffer was posted (RDMA).
	RNRDrops uint64
}

// Caps describes what a host's hardware/OS offers. Kernel networking is
// always present; the others model the heterogeneity of edge nodes (§1).
type Caps struct {
	DPDK bool
	XDP  bool
	RDMA bool
}

// Has reports whether the capability set includes a technology.
func (c Caps) Has(t model.Tech) bool {
	switch t {
	case model.TechKernelUDP:
		return true
	case model.TechDPDK:
		return c.DPDK
	case model.TechXDP:
		return c.XDP
	case model.TechRDMA:
		return c.RDMA
	default:
		return false
	}
}

// List returns the available technologies in Table 1 order.
func (c Caps) List() []model.Tech {
	out := []model.Tech{model.TechKernelUDP}
	if c.XDP {
		out = append(out, model.TechXDP)
	}
	if c.DPDK {
		out = append(out, model.TechDPDK)
	}
	if c.RDMA {
		out = append(out, model.TechRDMA)
	}
	return out
}
