//go:build perfbench

package main

import (
	"context"
	"runtime"
	"time"
)

// A run alternates short segments of its kinds of load — timed pings,
// bursts — instead of running each kind once for half the time, and
// reports a figure over the segments (fastDecile). The machine's speed
// changes over seconds (shared caches, neighbours); interleaving shows
// every kind of load the same changes, and a figure over segments can set
// the disturbed ones aside where a figure over the whole run absorbs them.
const (
	segmentLen = 500 * time.Millisecond
	// segmentSamples bounds the latencies kept per segment; operations
	// beyond that still run and count as work.
	segmentSamples = 1 << 18
	// A segment that keeps failing is cut short: the run is already
	// incorrect, and retrying every operation to its bound would outlast
	// the driver's patience.
	maxSegmentFailures = 100
	consumeGrace       = 10 * time.Second
)

// segment is what one stretch of load produced.
type segment struct {
	samples []uint32 // latencies of the first segmentSamples timed operations
	msgs    uint64   // messages the load goroutine emitted (and every sink consumed)
	ns      int64    // wall-clock length
	cpu     float64  // process CPU seconds spent
	lateMax int64    // tsn-mixed: worst overrun of a 337 us slot
	failed  uint64
	aborted bool
}

func (s *segment) rate() float64 { return ratio(float64(s.msgs), float64(s.ns)/1e9) }

// cpuPerMsg is process CPU time per message, in microseconds.
func (s *segment) cpuPerMsg() float64 { return ratio(s.cpu*1e6, float64(s.msgs)) }

// pingSegment times one message at a time for segmentLen.
func (r *rig) pingSegment(buf []uint32, tr *spanRing) segment {
	ctx, cancel := context.WithTimeout(context.Background(), segmentLen+consumeGrace)
	defer cancel()
	var seg segment
	before, cpu0, start, n := r.ping.emitted, cpuSeconds(), now(), 0
	deadline := start + int64(segmentLen)
	for {
		lat, end, err := r.ping.ping(ctx, tr)
		if err != nil {
			seg.failed++
			if seg.failed >= maxSegmentFailures || ctx.Err() != nil {
				seg.aborted = true
				break
			}
			continue
		}
		if n < len(buf) {
			buf[n] = clampNs(lat)
			n++
		}
		if end >= deadline {
			break
		}
	}
	seg.ns, seg.cpu = now()-start, cpuSeconds()-cpu0
	seg.samples, seg.msgs = buf[:n], r.ping.emitted-before
	return seg
}

// burstSegment emits burstLen messages back to back, consumes them all,
// and repeats for segmentLen. between, when set, is called once with a
// burst in flight.
func (r *rig) burstSegment(between func()) segment {
	ctx, cancel := context.WithTimeout(context.Background(), segmentLen+consumeGrace)
	defer cancel()
	var seg segment
	before, start := r.bulk.emitted, now()
	for now()-start < int64(segmentLen) {
		sent, err := r.bulk.sendN(r.burstLen)
		if err != nil {
			seg.failed++
		}
		if between != nil {
			between()
			between = nil
		}
		if err := r.bulk.drainN(ctx, sent); err != nil {
			seg.failed++
			seg.aborted = true
			break
		}
		if seg.failed >= maxSegmentFailures {
			seg.aborted = true
			break
		}
	}
	seg.ns, seg.msgs = now()-start, r.bulk.emitted-before
	return seg
}

// mixedSegment is tsn-mixed's load. Every tsnPeriod it emits the
// best-effort backlog, then one TSN message whose Emit-to-Consume time is
// the sample, then drains the backlog. The schedule is absolute and
// carries over from segment to segment (r.due); a cycle that overruns its
// slot starts the next one at once and moves the schedule by the overrun,
// so cycles never queue up behind a stall. between, when set, is called
// once with a backlog in flight.
func (r *rig) mixedSegment(buf []uint32, tr *spanRing, between func()) segment {
	ctx, cancel := context.WithTimeout(context.Background(), segmentLen+consumeGrace)
	defer cancel()
	var seg segment
	before := r.ping.emitted + r.bulk.emitted
	cpu0, start, n := cpuSeconds(), now(), 0
	deadline := start + int64(segmentLen)
	r.due = max(r.due, start) // the pause between segments is not lateness
	for {
		for now() < r.due {
			runtime.Gosched() // a timer cannot hit a 337 us slot; the load goroutine spins to it
		}
		sent, err := r.bulk.sendN(r.burstLen)
		if err != nil {
			seg.failed++
		}
		lat, end, err := r.ping.ping(ctx, tr)
		if err != nil {
			seg.failed++
		} else if n < len(buf) {
			buf[n] = clampNs(lat)
			n++
		}
		if between != nil {
			between()
			between = nil
		}
		if err := r.bulk.drainN(ctx, sent); err != nil {
			seg.failed++
			seg.aborted = true
			break
		}
		if seg.failed >= maxSegmentFailures || ctx.Err() != nil {
			seg.aborted = true
			break
		}
		if end >= deadline {
			break
		}
		r.due += int64(tsnPeriod)
		if t := now(); t > r.due {
			seg.lateMax = max(seg.lateMax, t-r.due)
			r.due = t
		}
	}
	seg.ns, seg.cpu = now()-start, cpuSeconds()-cpu0
	seg.samples, seg.msgs = buf[:n], r.ping.emitted+r.bulk.emitted-before
	return seg
}
