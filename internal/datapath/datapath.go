// Package datapath defines the plugin interface (SPI) between the INSANE
// runtime and the technology-specific datapaths (§5.3: "each plugin, one
// per available network acceleration technique, must define a send and a
// receive operation").
//
// A plugin turns opaque middleware messages into technology frames on a
// fabric port and back. Plugins for technologies that need a userspace
// network stack (DPDK, XDP) exchange *framed* packets — the runtime's
// packet processing engine builds/parses the Ethernet/IPv4/UDP headers —
// while kernel UDP and RDMA plugins accept bare messages because the
// kernel or the NIC implements the protocols.
//
// Every packet carries a virtual timestamp and a Fig. 6-style breakdown;
// plugins charge their calibrated model costs as the packet crosses them
// (see internal/model).
package datapath

import (
	"errors"
	"time"

	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

// Headroom is the slot space reserved in front of every message so that
// framing plugins can prepend protocol headers without copying, exactly
// like mbuf headroom in DPDK.
const Headroom = netstack.HeadersLen

// Errors shared by plugin implementations.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("datapath: endpoint closed")
	// ErrUnavailable is returned when a technology is not present on the
	// host (the QoS mapper then falls back, §5.2).
	ErrUnavailable = errors.New("datapath: technology unavailable on this host")
	// ErrTooLarge is returned when a message exceeds the path MTU; INSANE
	// does not fragment (§8: end-to-end zero copy), callers must use
	// jumbo-frame slots or application-level fragmentation.
	ErrTooLarge = errors.New("datapath: message exceeds MTU")
)

// Packet is the unit exchanged between the runtime and a plugin.
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
	// Class is the traffic class (0-7) used by the TSN scheduler's gate
	// control list; 0 is best effort.
	Class uint8
	// Tenant is the emitting tenant's index in the runtime's tenant
	// table (0 = the default tenant); the weighted deficit round-robin
	// scheduler uses it to pick the tenant queue. Like Class it is pure
	// scheduling metadata — plugins must not touch it.
	Tenant uint16
	// VTime is the accumulated virtual timestamp of the packet.
	VTime timebase.VTime
	// Breakdown accounts the virtual time by Fig. 6 stage.
	Breakdown fabric.Breakdown
	// Ctx is an opaque caller context that rides along the packet
	// through schedulers and queues (like mbuf user metadata); plugins
	// must not touch it.
	Ctx any
}

// Bytes returns the message (or frame) view of the packet.
func (p *Packet) Bytes() []byte { return p.Buf[p.Off : p.Off+p.Len] }

// Charge adds a model component's latency cost to the packet's virtual
// clock and breakdown, amortizing burstable work over burst packets. It
// runs several times per packet on every plugin, so the component and the
// testbed come by pointer.
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
	// its slots, and Close unregisters it.
	Mem *mempool.Manager
	// Testbed selects the cost scaling environment.
	Testbed model.Testbed
	// Burst caps how many packets one Send/Poll call moves. Zero means
	// model.DefaultBurst.
	Burst int
	// Blocking selects blocking receive semantics where the technology
	// offers them (kernel UDP); busy-polling plugins ignore it.
	Blocking bool
}

// EffectiveBurst returns the configured burst, defaulted.
func (c Config) EffectiveBurst() int {
	if c.Burst <= 0 {
		return model.DefaultBurst
	}
	return c.Burst
}

// Stats counts endpoint activity.
type Stats struct {
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
	Drops                uint64 // demux misses, no posted receive buffer
	EmptyPolls           uint64 // busy-poll iterations that found nothing
}

// Endpoint is an open datapath attachment.
type Endpoint interface {
	// Tech identifies the plugin technology.
	Tech() model.Tech
	// Send transmits a burst of packets to dst. It returns the number of
	// packets accepted; the caller retains ownership of rejected ones.
	// Every implementation is an //insane:hotpath root of its own.
	//
	//insane:hotpath
	Send(pkts []*Packet, dst netstack.Endpoint) (int, error)
	// Poll receives up to len(pkts) packets into pkts without blocking
	// (burst-oriented plugins stop at Config.Burst) and returns how many
	// it filled. Each sits in a slot of Config.Mem that the caller now
	// owns. The vector is the caller's: one per polling thread.
	//
	//insane:hotpath
	Poll(pkts []Packet) (int, error)
	// WaitRecv blocks until at least one packet is available or the
	// timeout elapses; busy-polling technologies return immediately.
	WaitRecv(timeout time.Duration) error
	// MTU returns the maximum message size the endpoint accepts.
	MTU() int
	// Stats returns a snapshot of endpoint counters.
	Stats() Stats
	// Close releases the endpoint, unregisters Config.Mem from the port
	// and releases every frame still queued on it.
	Close() error
}

// Plugin creates endpoints for one technology.
type Plugin interface {
	// Tech identifies the technology.
	Tech() model.Tech
	// Info returns the Table 1 capability record.
	Info() model.TechInfo
	// Available reports whether the host offers this technology.
	Available(caps Caps) bool
	// Open creates an endpoint.
	Open(cfg Config) (Endpoint, error)
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
