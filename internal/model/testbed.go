package model

import (
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// ScaleClass says which testbed scaling factor applies to a cost component.
// The two testbeds differ in CPU (18-core i9 @3.0 GHz locally vs 32-core
// AMD 7452 @2.35 GHz in the cloud) and the paper observes that the slower
// cloud cores inflate different software layers by different factors
// (Fig. 6/7: the kernel stack slows ~1.6x, the INSANE runtime ~2.5x because
// of its cross-process cache footprint, Demikernel's in-process library
// barely at all).
type ScaleClass int

// Scaling classes for cost components.
const (
	ScaleNone    ScaleClass = iota // hardware (NIC, wire): unaffected by CPU
	ScaleKernel                    // kernel stack and syscall costs
	ScaleDriver                    // userspace driver costs (DPDK PMD etc.)
	ScaleLib                       // library-OS overhead (Demikernel)
	ScaleRuntime                   // INSANE runtime overhead (IPC, sched)
)

// Testbed describes one evaluation environment (Table 2 of the paper).
type Testbed struct {
	Name string
	// Node descriptions, reported by cmd/insane-info (Table 2).
	OS, CPU, RAM, NIC, Switch string

	// LinkRate is the NIC line rate.
	LinkRate timebase.Rate
	// PropDelay is the one-way propagation + PHY delay per link.
	PropDelay time.Duration
	// SwitchLatency is the per-traversal switch latency (0 = direct
	// cable, the local testbed).
	SwitchLatency time.Duration

	// Scale factors per component class (1.0 = local baseline).
	KernelScale  float64
	DriverScale  float64
	LibScale     float64
	RuntimeScale float64
}

// Scale applies the testbed factor for the given class to a duration.
func (tb *Testbed) Scale(class ScaleClass, d time.Duration) time.Duration {
	f := 1.0
	switch class {
	case ScaleKernel:
		f = tb.KernelScale
	case ScaleDriver:
		f = tb.DriverScale
	case ScaleLib:
		f = tb.LibScale
	case ScaleRuntime:
		f = tb.RuntimeScale
	}
	if f == 0 {
		f = 1.0
	}
	return time.Duration(float64(d) * f)
}

// WireLatency returns the one-way wire time for a frame of frameLen bytes:
// serialization (plus preamble/IFG), propagation, and switch traversal.
func (tb *Testbed) WireLatency(frameLen int) time.Duration {
	const wireOverhead = 24 // preamble+SFD+FCS+IFG, mirrors netstack.WireOverhead
	return tb.LinkRate.Transmission(frameLen+wireOverhead) + tb.PropDelay + tb.SwitchLatency
}

// WireOccupancy returns how long a frame occupies the wire (the throughput
// bottleneck contribution of the link): serialization only, since
// propagation and switch latency are pipelined away.
func (tb *Testbed) WireOccupancy(frameLen int) time.Duration {
	const wireOverhead = 24
	return tb.LinkRate.Transmission(frameLen + wireOverhead)
}

// Local reproduces the paper's local testbed: two nodes back to back on
// 100 Gbps Mellanox ConnectX-6 Dx, Intel i9-10980XE @ 3.00 GHz.
var Local = Testbed{
	Name:          "local",
	OS:            "Ubuntu 22.04",
	CPU:           "18-core Intel i9-10980XE @ 3.00GHz",
	RAM:           "64GB",
	NIC:           "Mellanox DX-6 100Gbps",
	Switch:        "(direct cable)",
	LinkRate:      100 * timebase.Gbps,
	PropDelay:     450 * time.Nanosecond,
	SwitchLatency: 0,
	KernelScale:   1.0,
	DriverScale:   1.0,
	LibScale:      1.0,
	RuntimeScale:  1.0,
}

// Cloud reproduces the CloudLab testbed: two nodes through a Dell
// Z9264F-ON switch (the paper measured 1.7 µs per traversal), AMD EPYC
// 7452 @ 2.35 GHz. The per-class CPU factors reproduce the paper's
// observation that the slower processor penalizes the cross-process INSANE
// runtime (~2.5x) much more than Demikernel's in-process library, with the
// kernel stack in between (~1.6x).
var Cloud = Testbed{
	Name:          "cloud",
	OS:            "Ubuntu 22.04",
	CPU:           "32-core AMD 7452 @ 2.35GHz",
	RAM:           "128GB",
	NIC:           "Mellanox DX-5 100Gbps",
	Switch:        "Dell Z9264F-ON",
	LinkRate:      100 * timebase.Gbps,
	PropDelay:     450 * time.Nanosecond,
	SwitchLatency: 1700 * time.Nanosecond,
	KernelScale:   1.6,
	DriverScale:   1.0,
	LibScale:      1.1,
	RuntimeScale:  2.55,
}

// Testbeds lists the two evaluation environments (Table 2).
func Testbeds() []Testbed { return []Testbed{Local, Cloud} }
