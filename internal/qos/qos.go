// Package qos defines INSANE's Quality-of-Service policies (§5.2) and the
// mapping strategy that turns them into a concrete network technology at
// stream-creation time.
//
// The paper defines exactly three stream options — the degree of datapath
// acceleration, the level of tolerable resource consumption, and the
// time-sensitiveness of the flow — plus a user-configurable mapping
// strategy. Policies are hints: the mapper makes a best-effort choice among
// the technologies actually available on the host and falls back to the
// kernel stack (with a warning surfaced to the caller) when acceleration is
// requested but unavailable.
package qos

import (
	"fmt"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
)

// Datapath is the acceleration policy: whether the flow needs an
// accelerated datapath or regular kernel networking suffices.
type Datapath int

// Acceleration levels.
const (
	// DatapathSlow requests regular kernel-based networking. It is the
	// zero value.
	DatapathSlow Datapath = iota
	// DatapathFast requests network acceleration.
	DatapathFast
)

// String names the policy value as in the paper ("slow"/"fast").
func (d Datapath) String() string {
	switch d {
	case DatapathSlow:
		return "slow"
	case DatapathFast:
		return "fast"
	default:
		return "unknown"
	}
}

// Resources is the resource-consumption policy: whether CPU usage matters
// when picking a technology (e.g. DPDK's spinning cores "may be
// unacceptable in some contexts").
type Resources int

// Resource-consumption levels.
const (
	// ResourcesUnconstrained permits resource-hungry technologies. It is
	// the zero value.
	ResourcesUnconstrained Resources = iota
	// ResourcesConstrained asks the mapper to avoid busy-polling cores.
	ResourcesConstrained
)

// String names the policy value.
func (r Resources) String() string {
	switch r {
	case ResourcesUnconstrained:
		return "unconstrained"
	case ResourcesConstrained:
		return "constrained"
	default:
		return "unknown"
	}
}

// Timing is the time-sensitiveness policy selecting the packet scheduling
// strategy for the stream's packets. One byte: the TX token carries it.
type Timing uint8

// Time-sensitiveness levels.
const (
	// TimingBestEffort uses the default FIFO scheduler. It is the zero
	// value.
	TimingBestEffort Timing = iota
	// TimingSensitive uses the IEEE 802.1Qbv time-aware scheduler.
	TimingSensitive
)

// String names the policy value.
func (t Timing) String() string {
	switch t {
	case TimingBestEffort:
		return "best-effort"
	case TimingSensitive:
		return "time-sensitive"
	default:
		return "unknown"
	}
}

// Options is the quality requirement set associated with a stream: the
// contract create_stream maps. The zero value means
// slow/unconstrained/best-effort with telemetry on.
type Options struct {
	Datapath  Datapath
	Resources Resources
	Timing    Timing
	// Class is the 802.1Qbv traffic class (0-7) whose gate the stream's
	// packets wait for: always when time-sensitive, between tenants when
	// best effort.
	Class uint8
	// Mapper overrides the default mapping strategy when non-nil
	// ("according to a user-configured mapping strategy", §5.2). It
	// receives the names of the technologies available on the node and
	// returns one of them; "" or an unknown name delegates back to
	// DefaultMap.
	Mapper func(available []string) string
	// NoTelemetry opts this stream's messages out of the per-stage
	// latency histograms (counters still run); see DESIGN.md §8.
	NoTelemetry bool
	// RunToCompletion opts the stream's sources into the run-to-completion
	// fast path (DESIGN.md §11): an Emit whose fanout is purely local, small
	// enough, and (for time-sensitive streams) inside its 802.1Qbv gate
	// window is delivered synchronously on the emitting goroutine, skipping
	// the TX ring, the scheduler, and the poller wakeup. Emits that fail the
	// preconditions silently take the queued path. Opting in commits each
	// source to the documented single-goroutine emit contract.
	RunToCompletion bool
}

// Validate checks the option values.
func (o Options) Validate() error {
	if o.Datapath != DatapathSlow && o.Datapath != DatapathFast {
		return fmt.Errorf("qos: invalid datapath policy %d", o.Datapath)
	}
	if o.Resources != ResourcesUnconstrained && o.Resources != ResourcesConstrained {
		return fmt.Errorf("qos: invalid resource policy %d", o.Resources)
	}
	if o.Timing != TimingBestEffort && o.Timing != TimingSensitive {
		return fmt.Errorf("qos: invalid timing policy %d", o.Timing)
	}
	if o.Class > 7 {
		return fmt.Errorf("qos: traffic class %d out of range 0-7", o.Class)
	}
	return nil
}

// String renders the options compactly for logs and warnings.
func (o Options) String() string {
	return fmt.Sprintf("datapath=%s resources=%s timing=%s class=%d",
		o.Datapath, o.Resources, o.Timing, o.Class)
}

// Map applies the stream's mapping strategy (custom or default) to the
// host capabilities. The boolean result reports a fallback: acceleration
// was requested but the stream runs on the kernel stack — because no
// accelerated technology is available, or because the custom strategy
// picked the kernel.
func Map(opts Options, caps datapath.Caps) (model.Tech, bool) {
	if opts.Mapper != nil {
		techs := caps.List()
		names := make([]string, len(techs))
		for i, tech := range techs {
			names[i] = tech.String()
		}
		pick := opts.Mapper(names)
		for i, name := range names {
			if name == pick {
				return techs[i], opts.Datapath == DatapathFast && techs[i] == model.TechKernelUDP
			}
		}
	}
	return DefaultMap(opts, caps)
}

// DefaultMap is the paper's default strategy (§5.2): kernel UDP when no
// acceleration is required; otherwise RDMA is the best alternative (best
// performance at low resource usage); otherwise DPDK if resource usage is
// not a concern, XDP if it is; and if no acceleration technology is
// available, fall back to the kernel stack and report it so the runtime
// can warn the user.
func DefaultMap(opts Options, caps datapath.Caps) (model.Tech, bool) {
	if opts.Datapath == DatapathSlow {
		return model.TechKernelUDP, false
	}
	var prefs []model.Tech
	if opts.Resources == ResourcesConstrained {
		// Avoid DPDK's dedicated spinning cores entirely: the policy
		// says CPU consumption is unacceptable for this flow.
		prefs = []model.Tech{model.TechRDMA, model.TechXDP}
	} else {
		prefs = []model.Tech{model.TechRDMA, model.TechDPDK, model.TechXDP}
	}
	for _, tech := range prefs {
		if caps.Has(tech) {
			return tech, false
		}
	}
	return model.TechKernelUDP, true
}
