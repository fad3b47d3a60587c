package insane

import "github.com/insane-mw/insane/internal/qos"

// Datapath is the acceleration QoS policy of a stream (§5.2).
type Datapath = qos.Datapath

// Acceleration levels: Slow, the default, maps to kernel networking; Fast
// requests an accelerated technology.
const (
	Slow = qos.DatapathSlow
	Fast = qos.DatapathFast
)

// Resources is the resource-consumption QoS policy.
type Resources = qos.Resources

// Resource-consumption levels: WhateverItTakes, the default, permits
// busy-polling technologies like DPDK; Frugal avoids dedicating spinning
// cores.
const (
	WhateverItTakes = qos.ResourcesUnconstrained
	Frugal          = qos.ResourcesConstrained
)

// Timing is the time-sensitiveness QoS policy.
type Timing = qos.Timing

// Time-sensitiveness levels: BestEffort, the default, uses the FIFO
// scheduler; TimeSensitive uses the IEEE 802.1Qbv time-aware scheduler.
const (
	BestEffort    = qos.TimingBestEffort
	TimeSensitive = qos.TimingSensitive
)

// Option sets one value of a stream's QoS contract (create_stream); pass
// them to Session.CreateStreamOpts, where a later option overrides an
// earlier one. With none, the contract is slow / whatever-it-takes /
// best-effort, class 0, the default mapping strategy, telemetry on and the
// queued path.
type Option func(*qos.Options)

// WithDatapath sets the acceleration policy (§5.2).
func WithDatapath(d Datapath) Option {
	return func(o *qos.Options) { o.Datapath = d }
}

// WithResources sets the resource-consumption policy.
func WithResources(r Resources) Option {
	return func(o *qos.Options) { o.Resources = r }
}

// WithTiming sets the time-sensitiveness policy.
func WithTiming(t Timing) Option {
	return func(o *qos.Options) { o.Timing = t }
}

// WithClass sets the 802.1Qbv traffic class (0-7) of the stream's
// packets; higher is more critical. The node's gate control list must
// open the class for every stream it gates (time-sensitive ones, and
// best-effort ones once the node declares tenants), or CreateStreamOpts
// refuses the stream.
func WithClass(class uint8) Option {
	return func(o *qos.Options) { o.Class = class }
}

// WithMapper overrides the default mapping strategy (§5.2: streams map
// "according to a user-configured mapping strategy"). The strategy
// receives the technology names available on the node (as in
// Node.Technologies()) and returns one of them; "" or a name the node
// does not have delegates back to the default strategy.
func WithMapper(m func(available []string) string) Option {
	return func(o *qos.Options) { o.Mapper = m }
}

// WithTelemetry enables or disables latency sampling for the stream.
// Telemetry is on by default: one message in 64 of each source (every
// message of a time-sensitive stream) is timed on the node's clock, the
// others pay one branch per stage; disabling it samples none (throughput
// counters always run).
func WithTelemetry(enabled bool) Option {
	return func(o *qos.Options) { o.NoTelemetry = !enabled }
}

// WithRunToCompletion opts the stream's sources into the synchronous
// local fast path: purely local, small-fanout emits are delivered on the
// emitting goroutine, skipping the TX ring and polling thread entirely
// (DESIGN.md §11). Emits with remote subscribers, a wide fanout, a
// closed TSN gate, or a full sink ring silently fall back to the queued
// path, so enabling it never changes delivery semantics — only latency.
// It requires the Source contract's single-goroutine emit discipline.
func WithRunToCompletion(enabled bool) Option {
	return func(o *qos.Options) { o.RunToCompletion = enabled }
}

// CreateStreamOpts opens a stream from functional options; the runtime
// maps the assembled QoS contract to the most appropriate technology
// available on this node (create_stream).
func (s *Session) CreateStreamOpts(opts ...Option) (*Stream, error) {
	var o qos.Options
	for _, opt := range opts {
		opt(&o)
	}
	h, err := s.conn.OpenStream(o)
	if err != nil {
		return nil, publicErr(err)
	}
	return &Stream{sess: s, h: h}, nil
}
