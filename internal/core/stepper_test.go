package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// stepped is buildWorld's two nodes with polling threads that never start,
// on one clock both runtimes read. The test runs every poller pass itself,
// on its own goroutine: what a live poller does at a moment of its choosing
// happens where the test says, so a stepped test waits for nothing and
// replays exactly. Set and Advance move the clock.
//
// A test that checks a race with running pollers stays on buildWorld.
type stepped struct {
	*world
	*countingClock
	t *testing.T
}

// countingClock is a SimClock that counts its readings.
type countingClock struct {
	timebase.SimClock
	reads atomic.Uint64
}

func (c *countingClock) Now() timebase.VTime {
	c.reads.Add(1)
	return c.SimClock.Now()
}

// maxSettleRounds bounds Settle. A round moves up to a burst per poller and
// direction, and a message crosses the fabric inside one round (the sender's
// pass transmits, the receiver's later pass of the same round picks it up),
// so no test's traffic needs more: a Settle that runs out is a pass that
// keeps finding work it cannot finish.
const maxSettleRounds = 64

// newStepped wires a stepped world; tune adjusts both nodes' Config as in
// buildWorld, and the clock is the world's whatever tune sets.
func newStepped(t *testing.T, capsA, capsB datapath.Caps, tune func(*Config)) *stepped {
	t.Helper()
	clock := &countingClock{}
	w := wireWorld(t, capsA, capsB, func(c *Config) {
		if tune != nil {
			tune(c)
		}
		c.Clock = clock
	}, newRuntime)
	return &stepped{world: w, countingClock: clock, t: t}
}

// Step runs one pass of the runtime's poller i. Pollers follow Table 1
// order (TestPollerOrderFollowsTable1), so i names the same poller on every
// run.
func (w *stepped) Step(rt *Runtime, i int) (work int, gated bool, nextGate timebase.VTime) {
	return rt.pass(rt.pollers[i])
}

// Settle runs rounds of passes — every poller of node A, then every poller
// of node B — until a whole round moves nothing. It does not move the
// clock: a token held behind a closed gate stays held.
func (w *stepped) Settle() {
	w.t.Helper()
	for round := 0; round < maxSettleRounds; round++ {
		moved := 0
		for _, rt := range []*Runtime{w.a, w.b} {
			for i := range rt.pollers {
				work, _, _ := w.Step(rt, i)
				moved += work
			}
		}
		if moved == 0 {
			return
		}
	}
	w.t.Fatalf("passes still moving messages after %d rounds", maxSettleRounds)
}

// roundTrip emits one message, settles, and consumes it from every sink.
func (w *stepped) roundTrip(src *SourceHandle, sinks ...*SinkHandle) {
	w.t.Helper()
	sendOn(w.t, src, []byte("stamped"))
	w.Settle()
	for _, k := range sinks {
		var d Delivery
		if err := k.TryConsume(&d); err != nil {
			w.t.Fatal(err)
		}
		k.Release(&d)
	}
}

// TestPollerOrderFollowsTable1: a runtime's pollers serve its technologies
// in Table 1 order, on one shared poller or several per plugin, on every
// build — so poller i, its telemetry shard i and the order of a shared pass
// are the same from run to run.
func TestPollerOrderFollowsTable1(t *testing.T) {
	for _, tc := range []struct {
		name string
		tune func(*Config)
		// want is what each poller serves, given Techs().
		want func(techs []model.Tech) [][]model.Tech
	}{
		{
			name: "shared poller",
			tune: func(c *Config) { c.SharedPoller = true },
			want: func(techs []model.Tech) [][]model.Tech { return [][]model.Tech{techs} },
		},
		{
			name: "two pollers per plugin",
			tune: func(c *Config) { c.PollersPerPlugin = 2 },
			want: func(techs []model.Tech) (out [][]model.Tech) {
				for _, tech := range techs {
					out = append(out, []model.Tech{tech}, []model.Tech{tech})
				}
				return out
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 10; i++ { // two runtimes a world: 20 builds
				w := newStepped(t, fullCaps, fullCaps, tc.tune)
				for _, rt := range []*Runtime{w.a, w.b} {
					var got [][]model.Tech
					for _, p := range rt.pollers {
						var serves []model.Tech
						for _, st := range p.states {
							serves = append(serves, st.tech)
						}
						got = append(got, serves)
					}
					if want := tc.want(rt.Techs()); !reflect.DeepEqual(got, want) {
						t.Fatalf("build %d, %s: pollers serve %v, want %v", i, rt.Name(), got, want)
					}
				}
			}
		})
	}
}

// replay is what a stepped run shows of itself: every delivery in the order
// it was consumed, every outcome, and the counter words of every poller
// shard of both nodes.
type replay struct {
	deliveries []delivered
	outcomes   []Outcome
	counters   [][telemetry.NumCounters]uint64
}

// delivered is a consumed message without its slot.
type delivered struct {
	payload   string
	vtime     timebase.VTime
	breakdown timebase.Breakdown
}

// replayScript runs one fixed script on a fresh stepped world with every
// technology: a gated class-0 time-sensitive stream and a best-effort
// stream, each with a local and a remote sink, emitting while the clock
// walks toward the gate edge and across it. A third session on node A
// emits on the best-effort channel too and is closed mid-traffic, its last
// message still in its lane.
func replayScript(t *testing.T) replay {
	const us = time.Microsecond
	const perStream = 8
	w := newStepped(t, fullCaps, fullCaps, func(c *Config) { c.GCL = testGCL })
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	type flow struct {
		src   *SourceHandle
		sinks []*SinkHandle
		seqs  []uint32
	}
	var flows []*flow
	for i, opts := range []qos.Options{{Timing: qos.TimingSensitive, Class: 0}, {}} {
		ch := uint32(90 + i)
		stA, err := connA.OpenStream(opts)
		if err != nil {
			t.Fatal(err)
		}
		stB, _ := connB.OpenStream(opts)
		local, _ := stA.CreateSink(ch)
		remote, _ := stB.CreateSink(ch)
		src, _ := stA.CreateSource(ch)
		flows = append(flows, &flow{src: src, sinks: []*SinkHandle{local, remote}})
	}
	connC, _ := w.a.Connect()
	stC, _ := connC.OpenStream(qos.Options{})
	late, _ := stC.CreateSource(91)
	var lateSeqs []uint32
	w.Settle() // the SUBs

	var run replay
	consume := func() {
		for _, f := range flows {
			for _, k := range f.sinks {
				var d Delivery
				for k.TryConsume(&d) == nil {
					run.deliveries = append(run.deliveries, delivered{string(d.Payload), d.VTime, d.Breakdown})
					k.Release(&d)
				}
			}
		}
	}
	// Class 0 is gated until 100 µs: its messages wait in the shaper while
	// the best-effort ones leave.
	w.Set(timebase.VTime(10 * us))
	for m := 0; m < perStream; m++ {
		for i, f := range flows {
			f.seqs = append(f.seqs, sendOn(t, f.src, []byte(fmt.Sprintf("stream %d, message %d", i, m))))
		}
		if m < perStream/2 {
			lateSeqs = append(lateSeqs, sendOn(t, late, []byte(fmt.Sprintf("closed session, message %d", m))))
		}
		if m == perStream/2-1 {
			if err := connC.Close(); err != nil {
				t.Fatal(err)
			}
		}
		w.Advance(7 * us)
		w.Settle()
		consume()
	}
	w.Set(timebase.VTime(150 * us))
	w.Settle()
	consume()

	if want := (2*perStream + perStream/2) * 2; len(run.deliveries) != want {
		t.Fatalf("%d deliveries, want %d", len(run.deliveries), want)
	}
	flows = append(flows, &flow{src: late, seqs: lateSeqs})
	for _, f := range flows {
		for _, seq := range f.seqs {
			o, ok := f.src.Outcome(seq)
			if !ok {
				t.Fatalf("outcome of seq %d not recorded", seq)
			}
			run.outcomes = append(run.outcomes, o)
		}
	}
	for _, rt := range []*Runtime{w.a, w.b} {
		for _, p := range rt.pollers {
			run.counters = append(run.counters, rt.tel.SnapshotOf(p.shard).Counters)
		}
	}
	return run
}

// TestSteppedRunReplays: the same script on two fresh stepped worlds gives
// the same deliveries (payload, virtual time and its Fig. 6 split), the
// same outcomes and the same counter words on every poller shard. Virtual
// time is a function of the script, not of the goroutine schedule.
func TestSteppedRunReplays(t *testing.T) {
	first, second := replayScript(t), replayScript(t)
	if !reflect.DeepEqual(first.deliveries, second.deliveries) {
		t.Errorf("deliveries differ:\n%v\n%v", first.deliveries, second.deliveries)
	}
	if !reflect.DeepEqual(first.outcomes, second.outcomes) {
		t.Errorf("outcomes differ:\n%v\n%v", first.outcomes, second.outcomes)
	}
	for i := range first.counters {
		if first.counters[i] != second.counters[i] {
			t.Errorf("poller shard %d: counters differ:\n%v\n%v", i, first.counters[i], second.counters[i])
		}
	}
}
