package insane

// Option configures one aspect of a stream's QoS contract; pass them to
// Session.CreateStreamOpts. The zero contract is slow / whatever-it-takes
// / best-effort with telemetry enabled, exactly like a zero Options
// struct.
type Option func(*Options)

// WithDatapath sets the acceleration policy (§5.2).
func WithDatapath(d Datapath) Option {
	return func(o *Options) { o.Datapath = d }
}

// WithResources sets the resource-consumption policy.
func WithResources(r Resources) Option {
	return func(o *Options) { o.Resources = r }
}

// WithTiming sets the time-sensitiveness policy.
func WithTiming(t Timing) Option {
	return func(o *Options) { o.Timing = t }
}

// WithClass sets the 802.1Qbv traffic class (0-7) of a time-sensitive
// stream; higher is more critical.
func WithClass(class uint8) Option {
	return func(o *Options) { o.Class = class }
}

// WithMapper overrides the default QoS mapping strategy; see
// Options.Mapper.
func WithMapper(m func(available []string) string) Option {
	return func(o *Options) { o.Mapper = m }
}

// WithTelemetry enables or disables latency sampling for the stream.
// Telemetry is on by default: one message in 64 of each source (every
// message of a time-sensitive stream) is timed on the node's clock, the
// others pay one branch per stage; disabling it samples none (throughput
// counters always run).
func WithTelemetry(enabled bool) Option {
	return func(o *Options) { o.DisableTelemetry = !enabled }
}

// WithRunToCompletion opts the stream's sources into the synchronous
// local fast path: purely local, small-fanout emits are delivered on the
// emitting goroutine, skipping the TX ring and polling thread entirely
// (DESIGN.md §11). Emits with remote subscribers, a wide fanout, a
// closed TSN gate, or a full sink ring silently fall back to the queued
// path, so enabling it never changes delivery semantics — only latency.
func WithRunToCompletion(enabled bool) Option {
	return func(o *Options) { o.RunToCompletion = enabled }
}

// WithOptions replaces the whole contract with an assembled Options
// struct; later options still apply on top. It is the bridge for code
// that builds Options programmatically.
func WithOptions(o Options) Option {
	return func(dst *Options) { *dst = o }
}

// CreateStreamOpts opens a stream from functional options; the runtime
// maps the assembled QoS contract to the most appropriate technology
// available on this node (create_stream).
func (s *Session) CreateStreamOpts(opts ...Option) (*Stream, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	h, err := s.conn.OpenStream(o.toQoS())
	if err != nil {
		return nil, publicErr(err)
	}
	return &Stream{sess: s, h: h}, nil
}
