package model

import "time"

// Category classifies where a cost shows up in the Fig. 6 latency
// breakdown (send / network / receive / data processing).
type Category int

// Breakdown categories, matching the paper's Fig. 6 legend.
const (
	CatSend Category = iota + 1
	CatNetwork
	CatRecv
	CatProcessing
)

// String names the category as in the Fig. 6 legend.
func (c Category) String() string {
	switch c {
	case CatSend:
		return "send"
	case CatNetwork:
		return "network"
	case CatRecv:
		return "receive"
	case CatProcessing:
		return "data processing"
	default:
		return "unknown"
	}
}

// Component is one additive cost element of a pipeline stage.
//
// Latency charges Fixed + Amort + PerByteNs*payload + LatencyOnly.
// Throughput occupancy charges Fixed + Amort/burst + PerByteNs*payload:
// Amort models per-burst work (doorbells, cache warmup) that opportunistic
// batching amortizes, and LatencyOnly models pure waiting (softirq
// scheduling, poll pickup) that occupies no resource. OccupancyOnly marks
// work that is off the latency critical path but still occupies the core
// (e.g. TX completion reaping).
type Component struct {
	Name          string
	Category      Category
	Class         ScaleClass
	Fixed         time.Duration
	Amort         time.Duration
	PerByteNs     float64
	LatencyOnly   time.Duration
	OccupancyOnly bool
}

// Latency returns the component's contribution to one-packet latency.
func (c *Component) Latency(payload int, tb *Testbed) time.Duration {
	if c.OccupancyOnly {
		return 0
	}
	d := c.Fixed + c.Amort + time.Duration(c.PerByteNs*float64(payload)) + c.LatencyOnly
	return tb.Scale(c.Class, d)
}

// Occupancy returns the component's per-packet resource occupancy under a
// send/receive burst of the given size.
func (c *Component) Occupancy(payload, burst int, tb *Testbed) time.Duration {
	if burst < 1 {
		burst = 1
	}
	d := c.Fixed + c.Amort/time.Duration(burst) + time.Duration(c.PerByteNs*float64(payload))
	return tb.Scale(c.Class, d)
}

// TechCosts is the calibrated per-packet cost profile of one datapath
// technology, split into the components a packet traverses. All values are
// for the local testbed baseline; Testbed scaling adapts them to the cloud.
type TechCosts struct {
	Tech Tech

	// Transmit path (application/runtime side).
	TxSyscall Component // kernel crossing on send (kernel & XDP)
	TxStack   Component // kernel protocol processing + copy
	TxDriver  Component // userspace driver / verbs post
	// TxComplete is the TX completion reaping work: off the latency
	// critical path (OccupancyOnly) but it occupies the sending core, and
	// it amortizes under bursts. This is what makes an unbatched sender
	// (Catnip) markedly slower than a batching one (INSANE) in Fig. 8a.
	TxComplete Component
	// NIC hardware.
	NICTx Component
	NICRx Component
	// Receive path.
	RxPoll  Component // driver poll / CQ poll / socket read pickup
	RxStack Component // kernel protocol processing + copy
	RxWait  Component // latency-only queueing (softirq, poll pickup)
}

// TxPath lists the components a packet crosses between the sender's call
// and the wire, in traversal order: what a datapath endpoint charges on
// send. A technology that lacks a component carries it at zero cost.
func (tc TechCosts) TxPath() []Component {
	return []Component{tc.TxSyscall, tc.TxStack, tc.TxDriver, tc.TxComplete, tc.NICTx}
}

// RxPath lists the components a packet crosses between the wire and the
// receiver's call returning, in traversal order: what a datapath endpoint
// charges on receive.
func (tc TechCosts) RxPath() []Component {
	return []Component{tc.NICRx, tc.RxWait, tc.RxStack, tc.RxPoll}
}

// NeedsUserStack reports whether the middleware must run its own packet
// processing engine for this technology (DPDK and XDP; the kernel and the
// RDMA NIC handle protocols themselves — §5.3).
func (tc TechCosts) NeedsUserStack() bool {
	return tc.Tech == TechDPDK || tc.Tech == TechXDP
}

// KernelUDP returns the kernel socket cost profile. Calibration: one-way
// non-blocking 64 B ≈ 6.29 µs (RTT 12.58, Fig. 7a); the pipelined stack
// stage (~0.9 µs + copies) bounds throughput. Blocking receive swaps the
// poll pickup wait for a costlier wakeup (RTT 13.34).
func KernelUDP() TechCosts {
	return TechCosts{
		Tech:      TechKernelUDP,
		TxSyscall: Component{Name: "tx-syscall", Category: CatSend, Class: ScaleKernel, Fixed: 450},
		TxStack:   Component{Name: "tx-kstack", Category: CatProcessing, Class: ScaleKernel, Fixed: 900, PerByteNs: 0.25},
		TxDriver:  Component{Name: "tx-kdriver", Category: CatSend, Class: ScaleKernel},
		NICTx:     Component{Name: "nic-tx", Category: CatSend, Class: ScaleNone, Fixed: 150},
		NICRx:     Component{Name: "nic-rx", Category: CatRecv, Class: ScaleNone, Fixed: 150, PerByteNs: 0.012},
		RxPoll:    Component{Name: "rx-syscall", Category: CatRecv, Class: ScaleKernel, Fixed: 450},
		RxStack:   Component{Name: "rx-kstack", Category: CatProcessing, Class: ScaleKernel, Fixed: 900, PerByteNs: 0.25},
		RxWait:    Component{Name: "rx-softirq-wait", Category: CatRecv, Class: ScaleKernel, LatencyOnly: 2800},
	}
}

// kernelBlockingWakeup is the extra latency-only cost of a blocking
// receive (process wakeup) relative to the non-blocking pickup wait that
// is already part of RxWait.
const kernelBlockingWakeup = 380 * time.Nanosecond

// BlockingWakeup returns the extra per-packet latency of blocking receive
// mode on the kernel path ("process wake-ups are costly", §6.2).
func BlockingWakeup() time.Duration { return kernelBlockingWakeup }

// DPDK returns the DPDK cost profile. Calibration: raw DPDK 64 B RTT =
// 3.44 µs locally (Fig. 7a): per direction 100 (driver) + 450 (doorbell) +
// 150+150 (NIC) + 410 (poll) + ~460 wire. The doorbell and most of the
// poll cost amortize under bursts, which is how raw DPDK saturates the
// 100 Gbps NIC (Fig. 8a).
func DPDK() TechCosts {
	return TechCosts{
		Tech:       TechDPDK,
		TxSyscall:  Component{},
		TxStack:    Component{},
		TxDriver:   Component{Name: "tx-pmd", Category: CatSend, Class: ScaleDriver, Fixed: 100, Amort: 450},
		TxComplete: Component{Name: "tx-complete", Category: CatSend, Class: ScaleDriver, Amort: 400, OccupancyOnly: true},
		NICTx:      Component{Name: "nic-tx", Category: CatSend, Class: ScaleNone, Fixed: 150},
		NICRx:      Component{Name: "nic-rx", Category: CatRecv, Class: ScaleNone, Fixed: 150, PerByteNs: 0.058},
		RxPoll:     Component{Name: "rx-pmd-poll", Category: CatRecv, Class: ScaleDriver, Fixed: 110, Amort: 300},
		RxStack:    Component{},
		RxWait:     Component{},
	}
}

// XDP returns the AF_XDP cost profile: zero-copy like DPDK but paying a
// per-packet kernel driver hop (eBPF execution + descriptor forwarding)
// instead of burning a busy-polling core. Not in the paper's measured
// prototype (integration was ongoing); calibrated between kernel UDP and
// DPDK per the AF_XDP literature (~2x DPDK latency).
func XDP() TechCosts {
	return TechCosts{
		Tech:       TechXDP,
		TxSyscall:  Component{Name: "tx-sendto", Category: CatSend, Class: ScaleKernel, Fixed: 250},
		TxStack:    Component{Name: "tx-ebpf", Category: CatProcessing, Class: ScaleKernel, Fixed: 300},
		TxDriver:   Component{Name: "tx-umem", Category: CatSend, Class: ScaleDriver, Fixed: 120, Amort: 180},
		TxComplete: Component{Name: "tx-complete", Category: CatSend, Class: ScaleDriver, Amort: 280, OccupancyOnly: true},
		NICTx:      Component{Name: "nic-tx", Category: CatSend, Class: ScaleNone, Fixed: 150},
		NICRx:      Component{Name: "nic-rx", Category: CatRecv, Class: ScaleNone, Fixed: 150, PerByteNs: 0.058},
		RxPoll:     Component{Name: "rx-umem-poll", Category: CatRecv, Class: ScaleDriver, Fixed: 140, Amort: 160},
		RxStack:    Component{Name: "rx-ebpf", Category: CatProcessing, Class: ScaleKernel, Fixed: 300},
		RxWait:     Component{Name: "rx-driver-wait", Category: CatRecv, Class: ScaleKernel, LatencyOnly: 450},
	}
}

// RDMA returns the two-sided RDMA (RoCEv2) cost profile: the NIC executes
// the transport in hardware, so host CPU only posts WQEs and polls CQs.
// Best latency of all technologies at near-zero CPU (Table 1, §5.2:
// "RDMA is the best alternative").
func RDMA() TechCosts {
	return TechCosts{
		Tech:       TechRDMA,
		TxSyscall:  Component{},
		TxStack:    Component{},
		TxDriver:   Component{Name: "tx-post-wqe", Category: CatSend, Class: ScaleDriver, Fixed: 100},
		TxComplete: Component{Name: "tx-cq-reap", Category: CatSend, Class: ScaleDriver, Amort: 200, OccupancyOnly: true},
		NICTx:      Component{Name: "nic-tx-transport", Category: CatSend, Class: ScaleNone, Fixed: 350},
		NICRx:      Component{Name: "nic-rx-transport", Category: CatRecv, Class: ScaleNone, Fixed: 350, PerByteNs: 0.058},
		RxPoll:     Component{Name: "rx-cq-poll", Category: CatRecv, Class: ScaleDriver, Fixed: 200},
		RxStack:    Component{},
		RxWait:     Component{},
	}
}

// Costs returns the profile for one technology.
func Costs(t Tech) TechCosts {
	switch t {
	case TechKernelUDP:
		return KernelUDP()
	case TechXDP:
		return XDP()
	case TechDPDK:
		return DPDK()
	case TechRDMA:
		return RDMA()
	default:
		return TechCosts{Tech: t}
	}
}

// RuntimeCosts models the INSANE runtime's own per-packet work: the IPC
// token hop, the packet scheduler, the packet processing engine (only on
// technologies that need a userspace stack) and sink delivery. Calibrated
// so INSANE adds ≈500 ns/packet on the slow path and ≈755 ns/packet on the
// fast path (§6.2), and so the receive polling thread sustains ≈26 Gbps of
// 1 KB messages to a single sink (Fig. 8b).
type RuntimeCosts struct {
	IPCTx      Component // client→runtime token enqueue+dequeue
	Sched      Component // FIFO scheduling decision
	NetstackTx Component // packet processing engine, transmit
	NetstackRx Component // packet processing engine, receive
	Deliver    Component // token insert into the sink's RX ring
	// RTCDeliver is the run-to-completion hop: a latency-class Emit that
	// delivers straight to local sinks on the emitting core, replacing
	// the IPCTx+Sched pair. Cheaper than either alone — no ring crossing,
	// no scheduling decision, just the admission checks.
	RTCDeliver Component
	// RxDMATouchNs is the per-byte receive-side cost (DMA/PCIe share and
	// payload cache touch) charged on the runtime's polling thread.
	RxDMATouchNs float64
	// PerExtraSinkNs is the additional delivery cost per sink beyond the
	// first, while the polling thread's working set stays cache-resident.
	PerExtraSinkNs float64
	// SinkCacheKnee is the sink count past which the working set spills
	// (Fig. 8b shows the knee between 6 and 8 sinks)...
	SinkCacheKnee int
	// PerExtraSinkSpillNs replaces PerExtraSinkNs beyond the knee.
	PerExtraSinkSpillNs float64
}

// DefaultRuntimeCosts returns the calibrated INSANE runtime profile.
func DefaultRuntimeCosts() RuntimeCosts {
	return RuntimeCosts{
		IPCTx:               Component{Name: "ipc-token", Category: CatSend, Class: ScaleRuntime, Fixed: 190},
		Sched:               Component{Name: "scheduler", Category: CatSend, Class: ScaleRuntime, Fixed: 100, Amort: 50},
		NetstackTx:          Component{Name: "netstack-tx", Category: CatProcessing, Class: ScaleRuntime, Fixed: 60, Amort: 50},
		NetstackRx:          Component{Name: "netstack-rx", Category: CatProcessing, Class: ScaleRuntime, Fixed: 50, Amort: 55},
		Deliver:             Component{Name: "sink-deliver", Category: CatRecv, Class: ScaleRuntime, Fixed: 80, Amort: 110},
		RTCDeliver:          Component{Name: "rtc-deliver", Category: CatSend, Class: ScaleRuntime, Fixed: 40},
		RxDMATouchNs:        0.058,
		PerExtraSinkNs:      5.4,
		SinkCacheKnee:       6,
		PerExtraSinkSpillNs: 87,
	}
}

// LibCosts models Demikernel's in-process library overhead: PerSide is
// charged once on the pushing application core and once on the popping one,
// so one packet pays 2x PerSide end to end. Calibrated from Fig. 7a:
// Catnap = native socket + 540 ns/packet, Catnip = raw DPDK + 410 ns/packet.
type LibCosts struct {
	PerSide Component
}

// CatnapLib returns the Demikernel Catnap overhead profile.
func CatnapLib() LibCosts {
	return LibCosts{PerSide: Component{Name: "catnap-lib", Category: CatProcessing, Class: ScaleLib, Fixed: 270}}
}

// CatnipLib returns the Demikernel Catnip overhead profile.
func CatnipLib() LibCosts {
	return LibCosts{PerSide: Component{Name: "catnip-lib", Category: CatProcessing, Class: ScaleLib, Fixed: 205}}
}
