package model

import (
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// System identifies one of the end-to-end configurations the evaluation
// compares (Fig. 5, 7, 8).
type System int

// The benchmarked systems.
const (
	SysUDPBlocking    System = iota + 1 // UDP socket, blocking receive
	SysUDPNonBlocking                   // UDP socket, busy-polled non-blocking receive
	SysRawDPDK                          // native DPDK application
	SysCatnap                           // Demikernel over kernel sockets
	SysCatnip                           // Demikernel over DPDK
	SysInsaneSlow                       // INSANE, datapath QoS "slow" → kernel UDP
	SysInsaneFast                       // INSANE, datapath QoS "fast" → DPDK
	SysInsaneXDP                        // INSANE over XDP (extension, §3)
	SysInsaneRDMA                       // INSANE over RDMA (extension, §3)
)

// String names the system as in the paper's figure legends.
func (s System) String() string {
	switch s {
	case SysUDPBlocking:
		return "Blocking UDP Socket"
	case SysUDPNonBlocking:
		return "Non-Blocking UDP Socket"
	case SysRawDPDK:
		return "Raw DPDK"
	case SysCatnap:
		return "Catnap UDP"
	case SysCatnip:
		return "Catnip UDP"
	case SysInsaneSlow:
		return "INSANE slow"
	case SysInsaneFast:
		return "INSANE fast"
	case SysInsaneXDP:
		return "INSANE xdp"
	case SysInsaneRDMA:
		return "INSANE rdma"
	default:
		return "unknown"
	}
}

// Batching reports whether the system's sender amortizes per-burst costs.
// INSANE uses opportunistic batching and raw DPDK applications use burst
// TX/RX; Demikernel's Catnip "is optimized for latency and sends one packet
// per time on the network" (§6.2), and kernel sockets have no burst API.
func (s System) Batching() bool {
	switch s {
	case SysRawDPDK, SysInsaneSlow, SysInsaneFast, SysInsaneXDP, SysInsaneRDMA:
		return true
	default:
		return false
	}
}

// DefaultBurst is the burst size used by batching systems; it matches the
// DPDK conventional burst of 32 descriptors. The runtime's pollers move
// exactly this many messages per pass, so every per-pass batch loop has a
// compile-time bound (the //insane:bounded waivers in internal/core cite it).
const DefaultBurst = 32

// FrameOverhead is the Ethernet+IPv4+UDP encapsulation added to every
// payload (netstack.HeadersLen; duplicated here to keep model a leaf
// package).
const FrameOverhead = 42

// Stage is one pipeline resource (a CPU core, the NIC, or the wire) that
// every packet of a flow traverses in order.
type Stage struct {
	Name  string
	Comps []Component
	// Wire marks the link stage, whose cost comes from the testbed's
	// rate/propagation/switch parameters rather than from components.
	Wire bool
}

// Latency returns the stage's contribution to single-packet latency.
func (st Stage) Latency(payload int, tb Testbed) time.Duration {
	if st.Wire {
		return tb.WireLatency(payload + FrameOverhead)
	}
	var d time.Duration
	for _, c := range st.Comps {
		d += c.Latency(payload, &tb)
	}
	return d
}

// Occupancy returns how long one packet occupies the stage's resource
// under the given burst size — the quantity that bounds pipelined
// throughput.
func (st Stage) Occupancy(payload, burst int, tb Testbed) time.Duration {
	if st.Wire {
		return tb.WireOccupancy(payload + FrameOverhead)
	}
	var d time.Duration
	for _, c := range st.Comps {
		d += c.Occupancy(payload, burst, &tb)
	}
	return d
}

// Pipeline is the ordered list of stages a packet traverses one way,
// sender application through receiver application.
type Pipeline struct {
	Sys    System
	Stages []Stage
}

// Build composes the one-way pipeline of a system from the technology,
// runtime and library cost profiles.
func Build(sys System) Pipeline {
	rc := DefaultRuntimeCosts()
	switch sys {
	case SysUDPBlocking, SysUDPNonBlocking:
		tc := KernelUDP()
		rxApp := []Component{tc.RxPoll}
		if sys == SysUDPBlocking {
			rxApp = append(rxApp, Component{
				Name: "rx-wakeup", Category: CatRecv, Class: ScaleKernel,
				LatencyOnly: kernelBlockingWakeup,
			})
		}
		return Pipeline{Sys: sys, Stages: []Stage{
			{Name: "app-tx", Comps: []Component{tc.TxSyscall}},
			{Name: "kstack-tx", Comps: []Component{tc.TxStack}},
			{Name: "nic-tx", Comps: []Component{tc.NICTx}},
			{Name: "wire", Wire: true},
			{Name: "nic-rx", Comps: []Component{tc.NICRx}},
			{Name: "kstack-rx", Comps: []Component{tc.RxWait, tc.RxStack}},
			{Name: "app-rx", Comps: rxApp},
		}}

	case SysRawDPDK:
		tc := DPDK()
		return Pipeline{Sys: sys, Stages: []Stage{
			{Name: "app-tx", Comps: []Component{tc.TxDriver, tc.TxComplete}},
			{Name: "nic-tx", Comps: []Component{tc.NICTx}},
			{Name: "wire", Wire: true},
			{Name: "nic-rx", Comps: []Component{tc.NICRx}},
			{Name: "app-rx", Comps: []Component{tc.RxPoll}},
		}}

	case SysCatnap:
		base := Build(SysUDPNonBlocking)
		base.Sys = sys
		return appendAppLib(base, CatnapLib().PerSide)

	case SysCatnip:
		base := Build(SysRawDPDK)
		base.Sys = sys
		return appendAppLib(base, CatnipLib().PerSide)

	case SysInsaneSlow:
		tc := KernelUDP()
		return Pipeline{Sys: sys, Stages: []Stage{
			{Name: "client-tx", Comps: []Component{rc.IPCTx}},
			{Name: "runtime-tx", Comps: []Component{rc.Sched, tc.TxSyscall}},
			{Name: "kstack-tx", Comps: []Component{tc.TxStack}},
			{Name: "nic-tx", Comps: []Component{tc.NICTx}},
			{Name: "wire", Wire: true},
			{Name: "nic-rx", Comps: []Component{tc.NICRx}},
			{Name: "kstack-rx", Comps: []Component{tc.RxWait, tc.RxStack}},
			{Name: "runtime-rx", Comps: []Component{tc.RxPoll, rc.Deliver}},
		}}

	case SysInsaneFast:
		return insanePipeline(sys, DPDK(), rc)
	case SysInsaneXDP:
		return insanePipeline(sys, XDP(), rc)
	case SysInsaneRDMA:
		return insanePipeline(sys, RDMA(), rc)
	default:
		return Pipeline{Sys: sys}
	}
}

// insanePipeline builds the INSANE pipeline over a kernel-bypassing
// technology: client → runtime polling thread (scheduler + packet
// processing engine + driver) → NIC → wire → NIC → runtime polling thread
// (driver poll + engine + sink delivery).
func insanePipeline(sys System, tc TechCosts, rc RuntimeCosts) Pipeline {
	txComps := []Component{rc.Sched}
	rxComps := []Component{tc.RxWait, tc.RxStack, tc.RxPoll}
	if tc.NeedsUserStack() {
		txComps = append(txComps, rc.NetstackTx)
		rxComps = append(rxComps, rc.NetstackRx)
	}
	txComps = append(txComps, tc.TxSyscall, tc.TxStack, tc.TxDriver, tc.TxComplete)
	rxComps = append(rxComps,
		Component{Name: "rx-dma-touch", Category: CatRecv, Class: ScaleRuntime, PerByteNs: rc.RxDMATouchNs},
		rc.Deliver)
	return Pipeline{Sys: sys, Stages: []Stage{
		{Name: "client-tx", Comps: []Component{rc.IPCTx}},
		{Name: "runtime-tx", Comps: txComps},
		{Name: "nic-tx", Comps: []Component{tc.NICTx}},
		{Name: "wire", Wire: true},
		{Name: "nic-rx", Comps: []Component{tc.NICRx}},
		{Name: "runtime-rx", Comps: rxComps},
	}}
}

// appendAppLib adds a library-OS overhead component to the first and last
// (application) stages of a raw pipeline.
func appendAppLib(p Pipeline, lib Component) Pipeline {
	stages := make([]Stage, len(p.Stages))
	copy(stages, p.Stages)
	first := stages[0]
	first.Comps = append(append([]Component{}, first.Comps...), lib)
	stages[0] = first
	last := stages[len(stages)-1]
	last.Comps = append(append([]Component{}, last.Comps...), lib)
	stages[len(stages)-1] = last
	p.Stages = stages
	return p
}

// OneWayLatency returns the modeled one-way latency of a packet with the
// given payload size.
func (p Pipeline) OneWayLatency(payload int, tb Testbed) time.Duration {
	var d time.Duration
	for _, st := range p.Stages {
		d += st.Latency(payload, tb)
	}
	return d
}

// RTT returns the modeled ping-pong round-trip time (the echo path is
// symmetric, as in the paper's benchmark).
func (p Pipeline) RTT(payload int, tb Testbed) time.Duration {
	return 2 * p.OneWayLatency(payload, tb)
}

// Bottleneck returns the slowest stage occupancy, which bounds pipelined
// throughput.
func (p Pipeline) Bottleneck(payload, burst int, tb Testbed) time.Duration {
	var worst time.Duration
	for _, st := range p.Stages {
		if d := st.Occupancy(payload, burst, tb); d > worst {
			worst = d
		}
	}
	return worst
}

// Throughput returns the modeled sustained goodput for back-to-back
// messages of the given payload, using the system's batching behaviour.
func (p Pipeline) Throughput(payload int, tb Testbed) timebase.Rate {
	burst := 1
	if p.Sys.Batching() {
		burst = DefaultBurst
	}
	b := p.Bottleneck(payload, burst, tb)
	if b <= 0 {
		return 0
	}
	return timebase.Goodput(payload, b)
}

// Breakdown returns the one-way latency split by Fig. 6 category.
func (p Pipeline) Breakdown(payload int, tb Testbed) map[Category]time.Duration {
	out := make(map[Category]time.Duration, 4)
	for _, st := range p.Stages {
		if st.Wire {
			out[CatNetwork] += tb.WireLatency(payload + FrameOverhead)
			continue
		}
		for _, c := range st.Comps {
			out[c.Category] += c.Latency(payload, &tb)
		}
	}
	return out
}

// MultiSinkPerSinkThroughput models Fig. 8b: the per-sink goodput when n
// separate applications subscribe to the same channel on one receiving
// runtime. All deliveries are performed by the single polling thread, so
// its occupancy grows with n; past the cache knee each additional sink is
// much more expensive (working-set spill), producing the cliff the paper
// observes at 8 sinks.
func MultiSinkPerSinkThroughput(sys System, n, payload int, tb Testbed) timebase.Rate {
	if n < 1 {
		n = 1
	}
	rc := DefaultRuntimeCosts()
	p := Build(sys)
	burst := 1
	if sys.Batching() {
		burst = DefaultBurst
	}
	extra := rc.MultiSinkExtra(n)
	var worst time.Duration
	for _, st := range p.Stages {
		d := st.Occupancy(payload, burst, tb)
		if st.Name == "runtime-rx" {
			d += tb.Scale(ScaleRuntime, extra)
		}
		if d > worst {
			worst = d
		}
	}
	if worst <= 0 {
		return 0
	}
	return timebase.Goodput(payload, worst)
}

// MultiSinkExtra returns the extra per-packet delivery cost the receive
// polling thread pays when fanning a packet out to n sinks (unscaled;
// apply the testbed's runtime factor).
func (rc RuntimeCosts) MultiSinkExtra(n int) time.Duration {
	if n <= 1 {
		return 0
	}
	cached := n - 1
	spilled := 0
	if rc.SinkCacheKnee > 0 && n > rc.SinkCacheKnee {
		cached = rc.SinkCacheKnee - 1
		spilled = n - rc.SinkCacheKnee
	}
	ns := float64(cached)*rc.PerExtraSinkNs + float64(spilled)*rc.PerExtraSinkSpillNs
	return time.Duration(ns)
}
