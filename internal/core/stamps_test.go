package core

import (
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// latencySamples returns Count and Sum of every `_seconds` family.
func latencySamples(r *Runtime) (count, sum [telemetry.NumHists]uint64) {
	s := r.tel.Snapshot()
	for h := telemetry.HistID(0); h < telemetry.NumHists; h++ {
		if telemetry.LatencyHist(h) {
			count[h], sum[h] = s.Hists[h].Count, s.Hists[h].Sum
		}
	}
	return count, sum
}

// TestStampsSumToEndToEnd: every latency family holds differences of two
// readings of the runtime's clock and nothing else. On a stepped world the
// test owns the clock and the poller's passes, dials an interval in between
// each pair of boundaries, and finds exactly those intervals in the
// families — with
// stage_send + stage_recv = consume_latency, and with a first reading of
// zero being a reading, not "unsampled".
func TestStampsSumToEndToEnd(t *testing.T) {
	const us = time.Microsecond
	type want map[telemetry.HistID]time.Duration
	for _, tc := range []struct {
		name string
		opts qos.Options
		// at[i] is the clock at Emit, at the poller's first pass, at its
		// second pass, and at Consume.
		at   [4]time.Duration
		want want
	}{
		{
			// Class 0 is gated until 100 µs: the first pass files the
			// message with the shaper, the second releases it.
			name: "queued, time-sensitive behind a closed gate",
			opts: qos.Options{Timing: qos.TimingSensitive, Class: 0},
			at:   [4]time.Duration{0, 10 * us, 150 * us, 175 * us},
			want: want{
				telemetry.HistEmitPickup:     10 * us,
				telemetry.HistSchedDwell:     140 * us,
				telemetry.HistStageSend:      150 * us,
				telemetry.HistStageRecv:      25 * us,
				telemetry.HistConsumeLatency: 175 * us,
			},
		},
		{
			name: "queued, best effort: in and out of the scheduler in one pass",
			at:   [4]time.Duration{0, 7 * us, 9 * us, 12 * us},
			want: want{
				telemetry.HistEmitPickup:     7 * us,
				telemetry.HistSchedDwell:     0,
				telemetry.HistStageSend:      7 * us,
				telemetry.HistStageRecv:      5 * us,
				telemetry.HistConsumeLatency: 12 * us,
			},
		},
		{
			// Admission and sink-ring push are both inside Emit.
			name: "run to completion",
			opts: rtcOpts,
			at:   [4]time.Duration{3 * us, 4 * us, 5 * us, 8 * us},
			want: want{
				telemetry.HistStageSend:      0,
				telemetry.HistStageRecv:      5 * us,
				telemetry.HistConsumeLatency: 5 * us,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) { c.GCL = testGCL })
			rt := w.a
			conn, _ := rt.Connect()
			stream, err := conn.OpenStream(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sink, err := stream.CreateSink(5)
			if err != nil {
				t.Fatal(err)
			}
			src, err := stream.CreateSource(5)
			if err != nil {
				t.Fatal(err)
			}
			w.Set(timebase.VTime(tc.at[0]))
			sendOn(t, src, []byte("stamped")) // seq 1: sampled on any stream
			w.Set(timebase.VTime(tc.at[1]))
			w.Step(rt, 0)
			w.Set(timebase.VTime(tc.at[2]))
			w.Step(rt, 0)
			w.Set(timebase.VTime(tc.at[3]))
			var d Delivery
			if err := sink.TryConsume(&d); err != nil {
				t.Fatal(err)
			}
			sink.Release(&d)

			count, sum := latencySamples(rt)
			for h := telemetry.HistID(0); h < telemetry.NumHists; h++ {
				if !telemetry.LatencyHist(h) {
					continue
				}
				interval, fed := tc.want[h]
				if !fed {
					if count[h] != 0 {
						t.Errorf("%s: %d samples, want none", telemetry.HistNameOf(h), count[h])
					}
					continue
				}
				if count[h] != 1 || time.Duration(sum[h]) != interval {
					t.Errorf("%s: %d samples summing to %v, want one of %v",
						telemetry.HistNameOf(h), count[h], time.Duration(sum[h]), interval)
				}
			}
			if s, r, e := sum[telemetry.HistStageSend], sum[telemetry.HistStageRecv], sum[telemetry.HistConsumeLatency]; s+r != e {
				t.Errorf("stage_send %d + stage_recv %d != consume_latency %d", s, r, e)
			}
		})
	}
}

// TestUnsampledMessageObservesNothing: the sampling decision is the
// source's, made per message at admission. A source's first message and
// every 64th after it feed the latency families; the 63 in between leave
// every bucket of every family where it was while each counter still
// counts each of them. A stream that opted out never samples, a
// time-sensitive stream samples every message.
func TestUnsampledMessageObservesNothing(t *testing.T) {
	const period = telemetry.SamplePeriod
	perMessage := [3]telemetry.CounterID{telemetry.CtrEmits, telemetry.CtrLocalDeliveries, telemetry.CtrConsumes}
	for _, tc := range []struct {
		name string
		opts qos.Options
		// fed lists the families one sampled message of the path feeds.
		fed []telemetry.HistID
		// every: each message is a sample; never: none is.
		every, never bool
	}{
		{name: "queued", fed: queuedFamilies},
		{name: "run to completion", opts: rtcOpts, fed: rtcFamilies},
		{name: "queued, telemetry off", opts: qos.Options{NoTelemetry: true}, never: true},
		{name: "run to completion, telemetry off", opts: qos.Options{RunToCompletion: true, NoTelemetry: true}, never: true},
		{name: "time-sensitive", opts: qos.Options{Timing: qos.TimingSensitive, Class: 7}, fed: queuedFamilies, every: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newStepped(t, datapath.Caps{}, datapath.Caps{}, nil)
			rt := w.a
			conn, _ := rt.Connect()
			stream, err := conn.OpenStream(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sink, _ := stream.CreateSink(6)
			src, _ := stream.CreateSource(6)

			fed := make(map[telemetry.HistID]bool)
			for _, h := range tc.fed {
				fed[h] = true
			}
			// run sends n messages and checks that every counter counted
			// each and that sampled of them fed the path's families.
			run := func(what string, n, sampled uint64) {
				t.Helper()
				before, _ := latencySamples(rt)
				var ctrBefore [3]uint64
				for i, c := range perMessage {
					ctrBefore[i] = rt.tel.Counter(c)
				}
				for i := uint64(0); i < n; i++ {
					w.roundTrip(src, sink)
				}
				after, _ := latencySamples(rt)
				for h := telemetry.HistID(0); h < telemetry.NumHists; h++ {
					want := before[h]
					if fed[h] {
						want += sampled
					}
					if after[h] != want {
						t.Errorf("%s: %s holds %d samples, want %d", what, telemetry.HistNameOf(h), after[h], want)
					}
				}
				for i, c := range perMessage {
					if got := rt.tel.Counter(c) - ctrBefore[i]; got != n {
						t.Errorf("%s: %s moved by %d, want %d", what, telemetry.NameOf(c), got, n)
					}
				}
			}

			switch {
			case tc.never:
				run("a whole period and one more", period+1, 0)
			case tc.every:
				run("a whole period and one more", period+1, period+1)
			default:
				run("the first message", 1, 1)
				run("messages 2 to 64", period-1, 0)
				run("message 65", 1, 1)
			}
		})
	}
}

// The families one sampled co-located message feeds, by path.
var (
	rtcFamilies    = []telemetry.HistID{telemetry.HistStageSend, telemetry.HistStageRecv, telemetry.HistConsumeLatency}
	queuedFamilies = append([]telemetry.HistID{telemetry.HistEmitPickup, telemetry.HistSchedDwell}, rtcFamilies...)
)

// TestSampledBitCrossesFabric: the decision made at admission rides the
// INSANE header, so the two ends of a remote path time the same message —
// the sender up to the endpoint's Send, the receiver from the pick-up —
// and neither times its unsampled neighbours. No family is fed with an
// interval that starts on one runtime's clock and ends on the other's.
func TestSampledBitCrossesFabric(t *testing.T) {
	w := newStepped(t, datapath.Caps{DPDK: true}, datapath.Caps{DPDK: true}, nil)
	connA, _ := w.a.Connect()
	connB, _ := w.b.Connect()
	fast := qos.Options{Datapath: qos.DatapathFast}
	stA, err := connA.OpenStream(fast)
	if err != nil {
		t.Fatal(err)
	}
	if stA.Tech() != model.TechDPDK {
		t.Fatalf("fast stream mapped to %v, want DPDK", stA.Tech())
	}
	stB, _ := connB.OpenStream(fast)
	sink, _ := stB.CreateSink(8)
	w.Settle() // the SUB
	src, _ := stA.CreateSource(8)

	// DPDK has no network stack of its own: the sender's packet processing
	// engine frames the message, which is stage_processing.
	sender := []telemetry.HistID{telemetry.HistEmitPickup, telemetry.HistSchedDwell, telemetry.HistStageProcessing, telemetry.HistStageSend}
	receiver := []telemetry.HistID{telemetry.HistStageRecv}
	check := func(what string, rt *Runtime, fed []telemetry.HistID, sampled uint64) {
		t.Helper()
		want := [telemetry.NumHists]uint64{}
		for _, h := range fed {
			want[h] = sampled
		}
		if count, _ := latencySamples(rt); count != want {
			t.Errorf("%s, %s: samples per family %v, want %v", what, rt.Name(), count, want)
		}
	}
	for _, step := range []struct {
		what     string
		messages int
		sampled  uint64 // in total, once the step is done
	}{
		{"the first message", 1, 1},
		{"messages 2 to 64", telemetry.SamplePeriod - 1, 1},
		{"message 65", 1, 2},
	} {
		for i := 0; i < step.messages; i++ {
			w.roundTrip(src, sink)
		}
		check(step.what, w.a, sender, step.sampled)
		check(step.what, w.b, receiver, step.sampled)
	}
	if rx := w.b.tel.Counter(telemetry.CtrConsumes); rx != telemetry.SamplePeriod+1 {
		t.Errorf("consumes = %d, want %d: the counters count every message", rx, telemetry.SamplePeriod+1)
	}
}
