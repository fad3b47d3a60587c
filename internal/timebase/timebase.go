// Package timebase provides the virtual time primitives shared by the whole
// reproduction: a message's virtual clock (Breakdown), clock readings
// (VTime) and clocks (real and simulated), and transmission-rate
// arithmetic.
//
// The paper reports µs-scale round-trip times measured on 100 Gbps hardware.
// Wall-clock measurements of a pure-Go reproduction would be dominated by Go
// scheduler noise, so every packet carries a virtual clock — the paper's
// Fig. 6 stage split — and latency-sensitive components add calibrated model
// costs to its stages as the packet traverses them; the latency is the sum.
// Experiments then report virtual durations, which are deterministic and
// reproducible.
package timebase

import (
	"fmt"
	"sync/atomic"
	"time"
)

// VTime is a clock reading in nanoseconds since an arbitrary epoch
// (usually the start of an experiment). It is deliberately a distinct type
// from time.Duration so that timestamps and durations cannot be mixed up.
type VTime int64

// Add returns the timestamp advanced by d.
func (t VTime) Add(d time.Duration) VTime { return t + VTime(d) }

// Sub returns the duration elapsed between o and t (t - o).
func (t VTime) Sub(o VTime) time.Duration { return time.Duration(t - o) }

// Before reports whether t is strictly earlier than o.
func (t VTime) Before(o VTime) bool { return t < o }

// Duration converts the timestamp to the duration elapsed since the epoch.
func (t VTime) Duration() time.Duration { return time.Duration(t) }

// String formats the timestamp as a duration since the epoch.
func (t VTime) String() string { return time.Duration(t).String() }

// Breakdown is a message's virtual clock: where its virtual time went, in
// the stage split of the paper's Fig. 6 (send / network / receive / data
// processing). A message's clock starts at zero and every charge lands in
// one stage, so Total is its accumulated latency.
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

// Max returns the later of a and b.
func Max(a, b VTime) VTime {
	if a > b {
		return a
	}
	return b
}

// Clock supplies virtual timestamps. Implementations must be safe for
// concurrent use, and — the pollers read the clock once per drain pass —
// Now is a trusted hot-path boundary: implementations must not allocate
// or block.
type Clock interface {
	//insane:hotpath
	Now() VTime
}

// RealClock is a Clock backed by the monotonic wall clock, reporting time
// elapsed since the clock was created. It is used by functional tests that
// do not care about calibrated timing.
type RealClock struct {
	start time.Time
}

// NewRealClock returns a RealClock whose epoch is the moment of the call.
func NewRealClock() *RealClock { return &RealClock{start: time.Now()} }

// Now returns the virtual time elapsed since the clock's epoch.
func (c *RealClock) Now() VTime { return VTime(time.Since(c.start)) }

// SimClock is a settable Clock used by the discrete-event simulator and by
// deterministic tests. The zero value reads as time zero.
type SimClock struct {
	now atomic.Int64
}

// Now returns the current virtual time.
func (c *SimClock) Now() VTime { return VTime(c.now.Load()) }

// Set moves the clock to t. Moving backwards is allowed (tests only).
func (c *SimClock) Set(t VTime) { c.now.Store(int64(t)) }

// Advance moves the clock forward by d and returns the new time.
func (c *SimClock) Advance(d time.Duration) VTime {
	return VTime(c.now.Add(int64(d)))
}

// Rate is a transmission rate in bits per second.
type Rate int64

// Common rates used by the testbed profiles.
const (
	Kbps Rate = 1_000
	Mbps Rate = 1_000_000
	Gbps Rate = 1_000_000_000
)

// Transmission returns the time needed to serialize n bytes at rate r.
// A zero or negative rate is treated as infinitely fast.
func (r Rate) Transmission(n int) time.Duration {
	if r <= 0 || n <= 0 {
		return 0
	}
	bits := int64(n) * 8
	// ns = bits / (bits/s) * 1e9, computed to avoid overflow for jumbo
	// frames at low rates: bits*1e9 fits int64 up to ~1.1 GB frames.
	return time.Duration(bits * int64(time.Second) / int64(r))
}

// Goodput returns the achieved rate when n payload bytes take d.
// A non-positive duration reports zero.
func Goodput(n int, d time.Duration) Rate {
	if d <= 0 || n <= 0 {
		return 0
	}
	return Rate(int64(n) * 8 * int64(time.Second) / int64(d))
}

// String formats the rate using the closest human unit (e.g. "86.9 Gbps").
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2f Gbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.2f Mbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.2f Kbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%d bps", int64(r))
	}
}
