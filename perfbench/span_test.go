//go:build perfbench

package main

import (
	"bytes"
	"strings"
	"testing"
)

// fixture is one trace: a root with two overlapping children, one of
// which has a child of its own that outlives it.
//
//	op           0 ................................ 100
//	  msg           10 .................. 60
//	    emit           10 ... 20
//	    consume_wait          20 ........ 60
//	  release                        50 ....... 80      (overlaps msg by 10)
//	      echo_emit (child of consume_wait) 55 ...... 90 (clipped to 60)
func fixture(trace uint64) []span {
	return []span{
		{trace, spanOp, noParent, 0, 100},
		{trace, spanMsg, spanOp, 10, 60},
		{trace, spanEmit, spanMsg, 10, 20},
		{trace, spanConsumeWait, spanMsg, 20, 60},
		{trace, spanRelease, spanOp, 50, 80},
		{trace, spanEchoEmit, spanConsumeWait, 55, 90},
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	trace := fixture(7)
	want := map[spanName]int64{
		spanOp:          30, // 100 - |[10,80]|: the overlap of msg and release counted once
		spanMsg:         0,  // emit and consume_wait tile it
		spanEmit:        10,
		spanConsumeWait: 35, // 40 - |[55,60]|: the child is clipped to its parent
		spanRelease:     30,
		spanEchoEmit:    35,
	}
	for _, s := range trace {
		if got := selfTime(s, trace); got != want[s.Name] {
			t.Errorf("selfTime(%s) = %d, want %d", s.Name, got, want[s.Name])
		}
	}
}

func TestAggregateGroupsByTraceAndSkipsRootlessTraces(t *testing.T) {
	spans := append(fixture(1), fixture(2)...)
	// Trace 3 lost its root to the ring: nothing of it may be counted.
	spans = append(spans, span{3, spanEmit, spanMsg, 0, 1000})
	agg := aggregate(spans)
	if n := len(agg[spanEmit].durations); n != 2 {
		t.Fatalf("emit spans aggregated = %d, want 2 (rootless trace skipped)", n)
	}
	if agg[spanEmit].durations[0] != 10 || agg[spanOp].selfSum != 60 || agg[spanConsumeWait].selfSum != 70 {
		t.Errorf("aggregate: emit durations %v, op self %g, consume_wait self %g", agg[spanEmit].durations, agg[spanOp].selfSum, agg[spanConsumeWait].selfSum)
	}
}

func TestSpanRingKeepsTheMostRecent(t *testing.T) {
	r := newSpanRing(4)
	for i := uint64(0); i < 6; i++ {
		r.record(i, spanOp, noParent, int64(i), int64(i)+1)
	}
	got := r.spans()
	if len(got) != 4 || got[0].Trace != 2 || got[3].Trace != 5 {
		t.Errorf("ring of 4 after 6 records = %+v, want traces 2..5 oldest first", got)
	}
	var buf bytes.Buffer
	if err := dumpSpans(&buf, got[:1]); err != nil {
		t.Fatal(err)
	}
	if line := strings.TrimSpace(buf.String()); line != `{"trace":2,"name":"op","start_ns":2,"end_ns":3}` {
		t.Errorf("dumped span = %s", line)
	}
}
