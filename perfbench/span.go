//go:build perfbench

package main

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
)

// spanName identifies what a span timed. The insane.* names are calls
// into the public API; msg is the end-to-end latency interval and op the
// whole operation around it.
type spanName uint8

const (
	spanOp spanName = iota
	spanMsg
	spanGetBuffer
	spanEmit
	spanConsumeWait
	spanRelease
	spanEchoGetBuffer
	spanEchoEmit
	spanEchoRelease
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "msg", "insane.get_buffer", "insane.emit", "insane.consume_wait",
	"insane.release", "insane.echo_get_buffer", "insane.echo_emit", "insane.echo_release",
}

func (n spanName) String() string { return spanNames[n] }

// noParent marks a root span.
const noParent = numSpanNames

// span is one timed interval. Spans of one message share Trace (the
// message's sequence number). A name occurs at most once per trace, so it
// also identifies the span: Parent names the span that caused this one.
type span struct {
	Trace        uint64
	Name, Parent spanName
	Start, End   int64 // nanoseconds on the benchmark's monotonic clock
}

// spanRing keeps the most recent spans in memory allocated up front, so
// recording neither allocates nor touches a lock; a ring is written by
// one goroutine and read after that goroutine has stopped.
type spanRing struct {
	buf  []span
	next uint64 // spans ever recorded
}

func newSpanRing(capacity int) *spanRing {
	return &spanRing{buf: make([]span, capacity)}
}

func (r *spanRing) record(trace uint64, name, parent spanName, start, end int64) {
	r.buf[r.next%uint64(len(r.buf))] = span{trace, name, parent, start, end}
	r.next++
}

// spans returns the retained spans, oldest first.
func (r *spanRing) spans() []span {
	n := uint64(len(r.buf))
	if r.next <= n {
		return r.buf[:r.next]
	}
	out := make([]span, 0, n)
	out = append(out, r.buf[r.next%n:]...)
	return append(out, r.buf[:r.next%n]...)
}

// dumpSpans writes the spans as JSON lines.
func dumpSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Trace   uint64 `json:"trace"`
			Name    string `json:"name"`
			Parent  string `json:"parent,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{Trace: s.Trace, Name: s.Name.String(), StartNs: s.Start, EndNs: s.End}
		if s.Parent != noParent {
			rec.Parent = s.Parent.String()
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// spanStats aggregates one span name over many traces.
type spanStats struct {
	durations []uint32 // per span, ns
	selfSum   float64
}

// aggregate groups spans by trace and returns, per name, every duration
// and the summed self time. A trace whose root fell out of the ring (its
// oldest spans overwritten) is skipped, so no span is measured against a
// missing parent.
func aggregate(spans []span) [numSpanNames]spanStats {
	var out [numSpanNames]spanStats
	byTrace := slices.Clone(spans)
	slices.SortStableFunc(byTrace, func(a, b span) int { return cmp.Compare(a.Trace, b.Trace) })
	for lo := 0; lo < len(byTrace); {
		hi := lo
		for hi < len(byTrace) && byTrace[hi].Trace == byTrace[lo].Trace {
			hi++
		}
		trace := byTrace[lo:hi]
		lo = hi
		if !slices.ContainsFunc(trace, func(s span) bool { return s.Parent == noParent }) {
			continue
		}
		for _, s := range trace {
			st := &out[s.Name]
			st.durations = append(st.durations, clampNs(s.End-s.Start))
			st.selfSum += float64(selfTime(s, trace))
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover; children that overlap each other are counted
// once, and a child reaching outside its parent is clipped to it.
func selfTime(s span, trace []span) int64 {
	type interval struct{ lo, hi int64 }
	var store [numSpanNames]interval // a name occurs once per trace, so this holds every child without allocating
	kids := store[:0]
	for _, c := range trace {
		if c.Parent != s.Name {
			continue
		}
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			kids = append(kids, interval{lo, hi})
		}
	}
	slices.SortFunc(kids, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var covered, reach int64
	reach = s.Start
	for _, k := range kids {
		if k.hi <= reach {
			continue
		}
		covered += k.hi - max(k.lo, reach)
		reach = k.hi
	}
	return s.End - s.Start - covered
}

// clampNs stores a duration as a sample, saturating at ~4.29 s.
func clampNs(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}
