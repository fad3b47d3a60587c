//go:build perfbench

package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

const (
	// setupRounds is how often a run builds the workload; setup_s is the
	// median, so one slow build (cold code, fresh pages, a collection in
	// the background) does not decide it.
	setupRounds = 15
	// spanRingLen bounds the spans kept: the most recent ~170 k operations.
	spanRingLen = 1 << 20
	// slowWaitNs separates the remote path's two modes: a reply either
	// arrives in tens of microseconds or after a poller slept through it.
	slowWaitNs = 500_000
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not. The first four
// fields are the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string   `json:"workload,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Traced   bool     `json:"traced,omitempty"`
	Segments int      `json:"segments,omitempty"`
	Samples  int      `json:"latency_samples,omitempty"`
	Tail     string   `json:"latency_tail,omitempty"` // highest percentile with ten samples beyond it
	Notes    []string `json:"notes,omitempty"`
	// PerSegment keeps the per-segment values behind each end-to-end
	// metric, so a result file shows how a run's figure came about.
	PerSegment map[string][]float64 `json:"per_segment,omitempty"`

	order []string // metric names in reporting order
}

func (res *result) set(name, unit string, v float64) {
	if _, dup := res.Metrics[name]; !dup {
		res.order = append(res.order, name)
	}
	res.Metrics[name] = metric{v, unit}
}

// fail records violations: each is one failed operation.
func (res *result) fail(n uint64, notes ...string) {
	res.Failed += n
	res.Notes = append(res.Notes, notes...)
}

// account books a segment's refused or timed-out operations.
func (res *result) account(seg segment) {
	res.Attempted += seg.failed
	if seg.failed > 0 {
		res.fail(seg.failed, fmt.Sprintf("%d operations refused or timed out", seg.failed))
	}
	if seg.aborted {
		res.fail(1, "segment aborted after repeated failures")
	}
}

// touch writes every page of a fresh buffer so the page faults happen
// here, not in a timed segment.
func touch[T any](buf []T, v T) {
	const step = 512
	for i := 0; i < len(buf); i += step {
		buf[i] = v
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveBytes is heap and stack in use after a collection.
func liveBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse + ms.StackInuse)
}

// setUp builds the workload setupRounds times and returns the last rig,
// the time each build took (cluster, sessions, streams, subscriptions and
// the fixed warm-up) and the memory in use before the last build: the
// baseline mem_mb is taken against, so that the harness's own buffers
// cancel out.
func setUp(w workload, seed uint64, echoRing *spanRing) (r *rig, setups []float64, base float64, err error) {
	for i := 0; i < setupRounds; i++ {
		if r != nil {
			r.close()
			r = nil // or the closed cluster would count into the baseline
		}
		base = liveBytes() // also levels the heap, so no build inherits a collection in progress
		start := now()
		if r, err = w.build(seed, echoRing); err == nil {
			if err = r.warm(); err != nil {
				r.close()
			}
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, float64(now()-start)/1e9)
	}
	return r, setups, base, nil
}

// runOne builds the workload, measures it for about seconds, checks what
// was delivered and returns the metrics of the chosen pass: end-to-end
// with tracing off, per-layer with tracing on.
func runOne(w workload, seed uint64, seconds float64, traced bool, spansOut string) (*result, error) {
	res := &result{Metrics: map[string]metric{}, Workload: w.name, Seed: seed, Traced: traced}
	segments := max(1, int(seconds*float64(time.Second))/int(segmentLen))
	samples := make([]uint32, segments*segmentSamples)
	touch(samples, 1)
	var ring, echoRing *spanRing
	if traced {
		ring, echoRing = newSpanRing(spanRingLen), newSpanRing(spanRingLen/2)
		touch(ring.buf, span{})
		touch(echoRing.buf, span{})
	}
	r, setups, base, err := setUp(w, seed, echoRing)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.due = now() + int64(mix(seed)%250)*int64(time.Microsecond)
	sentAtStart := r.sent()
	c0 := snapshot(r.nodes)

	if traced {
		err = res.tracedPass(r, segments, samples, ring, echoRing, spansOut)
	} else {
		res.plainPass(r, segments, samples)
		res.set("setup_s", "s", median(setups))
		res.set("mem_mb", "MB", (liveBytes()-base)/1e6)
		runtime.KeepAlive(samples) // live at the baseline, so live here
	}
	if err != nil {
		return nil, err
	}

	// Correctness and conservation, with nothing in flight.
	d := snapshot(r.nodes).since(c0)
	notes := conservation(d, r.sent()-sentAtStart, len(r.ping.sinks))
	if r.check != nil {
		notes = append(notes, r.check()...)
	}
	if r.echo != nil {
		if n := r.echo.failed.Load(); n > 0 {
			notes = append(notes, fmt.Sprintf("echo side: %d replies refused", n))
		}
	}
	for _, p := range r.paths() {
		failed, pnotes := p.finish()
		res.Attempted += p.emitted
		res.fail(failed, pnotes...)
	}
	r.closeSessions()
	notes = append(notes, r.settled()...)
	res.Attempted += endChecks
	res.fail(uint64(len(notes)), notes...)
	res.Correct = res.Failed == 0
	return res, nil
}

// plainPass is the untraced pass: every second segment times pings, the
// others drive bursts (tsn-mixed: every segment does both). Each
// end-to-end metric is the fast decile of its per-segment values.
func (res *result) plainPass(r *rig, segments int, samples []uint32) {
	var timed, bursts []segment
	for i := 0; i < segments; i++ {
		buf := samples[i*segmentSamples : (i+1)*segmentSamples]
		switch {
		case r.mixed:
			seg := r.mixedSegment(buf, nil, nil)
			timed, bursts = append(timed, seg), append(bursts, seg)
		case i%2 == 0:
			timed = append(timed, r.pingSegment(buf, nil))
		default:
			bursts = append(bursts, r.burstSegment(nil))
		}
	}
	// Everything below runs after the last segment, so that sorting and
	// pooling samples disturbs none of them.
	var p50, p99, rate, cpu []float64
	var pooled []uint32
	for _, seg := range timed {
		res.account(seg)
		sum := summarize(seg.samples)
		pooled = append(pooled, seg.samples...)
		p50, p99, cpu = append(p50, sum.P50), append(p99, sum.P99), append(cpu, seg.cpuPerMsg())
	}
	for _, seg := range bursts {
		if !r.mixed {
			res.account(seg)
		}
		rate = append(rate, seg.rate())
	}
	all := summarize(pooled)
	res.Segments, res.Samples, res.Tail = segments, all.Count, all.tail()
	res.PerSegment = map[string][]float64{"latency_p50_ns": p50, "latency_p99_ns": p99, "msgs_per_s": rate, "cpu_us_per_msg": cpu}
	res.set("latency_p50_us", "us", fastDecile(p50, true)/1e3)
	res.set("latency_p99_us", "us", fastDecile(p99, true)/1e3)
	res.set("msgs_per_s", "1/s", fastDecile(rate, false))
	res.set("cpu_us_per_msg", "us", fastDecile(cpu, true))
}

// tracedPass cycles through untraced reference pings, traced pings and
// bursts, takes the runtime's counters around each kind, times the base
// packages and fills in the per-layer metrics.
func (res *result) tracedPass(r *rig, segments int, samples []uint32, ring, echoRing *spanRing, spansOut string) error {
	in := layerInputs{mixed: r.mixed}
	between := func() { in.ext.observe(snapshot(r.nodes).gauges) }
	// around runs one segment and adds the growth of the runtime's
	// counters and of the process's allocations to the given totals.
	around := func(delta *counters, run func() segment) segment {
		c, m := snapshot(r.nodes), mallocs()
		seg := run()
		in.mallocs += mallocs() - m
		*delta = delta.plus(snapshot(r.nodes).since(c))
		res.account(seg)
		return seg
	}
	for i := 0; i < segments; i++ {
		buf := samples[i*segmentSamples : (i+1)*segmentSamples]
		trace := i%2 == 1 // tsn-mixed alternates reference and traced segments
		if !r.mixed {
			trace = i%4 == 1 || i%4 == 2 // reference, traced, traced, bursts
		}
		if r.echo != nil {
			r.echo.trace.Store(trace)
		}
		switch {
		case r.mixed && trace:
			seg := around(&in.pingDelta, func() segment { return r.mixedSegment(buf, ring, between) })
			in.lat, in.rate = append(in.lat, seg), append(in.rate, seg)
		case r.mixed:
			seg := r.mixedSegment(buf, nil, nil)
			res.account(seg)
			in.ref = append(in.ref, seg)
		case trace:
			in.lat = append(in.lat, around(&in.pingDelta, func() segment { return r.pingSegment(buf, ring) }))
		case i%4 == 0:
			seg := r.pingSegment(buf, nil)
			res.account(seg)
			in.ref = append(in.ref, seg)
		default:
			in.rate = append(in.rate, around(&in.rateDelta, func() segment { return r.burstSegment(between) }))
		}
	}
	if r.echo != nil {
		r.echo.trace.Store(false)
	}
	var err error
	if in.base, err = baseLayers(); err != nil {
		return err
	}
	in.spans = slices.Concat(ring.spans(), echoRing.spans())
	if spansOut != "" {
		if err := writeSpans(spansOut, in.spans); err != nil {
			return err
		}
	}
	res.Segments = segments
	res.layerMetrics(in)
	return nil
}

// endChecks is the number of end-of-run checks counted as attempted
// operations: conservation, workload assertion, settled pools and quotas.
const endChecks = 3

// sent is how many messages the runtime accepted from the harness: the
// load goroutine's and the echo's replies.
func (r *rig) sent() uint64 {
	var n uint64
	for _, p := range r.paths() {
		n += p.emitted
	}
	if r.echo != nil {
		n += r.echo.replied.Load()
	}
	return n
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	if err := dumpSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("span dump %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump %s: %w", path, err)
	}
	return nil
}
