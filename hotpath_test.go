package repro

import (
	"context"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

// TestSteadyStateZeroAlloc gates the headline property of the hot-path
// work: the steady-state publish path — GetBuffer → Emit → drainTX →
// dispatch → shared-memory delivery → Consume → Release — performs zero
// heap allocations per message once the pools and topology snapshots are
// warm. A regression here fails `go test ./...`, not just a human
// reading benchstat. The shapes are the queued path and its synchronous
// variant (run to completion: Emit delivers on the calling goroutine,
// DESIGN.md §11), each at a small and a large payload — two pool classes
// — and fanned out to four sinks, where one buffer wrapper and four
// message wrappers cycle through their pools per op and the fast path
// sits exactly at its admission limit. The repository benchmark times
// these paths (local-queued, local-rtc-fanout); this is the in-process
// allocation count it cannot take.
//
// testing.AllocsPerRun counts process-wide mallocs (all goroutines), so
// an allocation smuggled into the polling threads trips the gate too.
// The cluster is kernel-only and otherwise quiet for the same reason.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate measures the plain build")
	}
	for _, shape := range []struct {
		name         string
		size, fanout int
		rtc          bool
	}{
		{name: "queued", size: 64, fanout: 1},
		{name: "queued 4KB", size: 4096, fanout: 1},
		{name: "queued 1 to 4 sinks", size: 64, fanout: 4},
		{name: "run-to-completion", size: 64, fanout: 1, rtc: true},
		{name: "run-to-completion 4KB", size: 4096, fanout: 1, rtc: true},
		{name: "run-to-completion 1 to 4 sinks", size: 64, fanout: 4, rtc: true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			gateZeroAlloc(t, shape.size, shape.fanout, shape.rtc)
		})
	}
}

// TestSteadyStateZeroAllocRemote holds the cross-node path to the same
// zero: two nodes over DPDK, GetBuffer → Emit → frame → wire → Poll →
// deliver → Consume → Release and the echo back. The wire copy lands in a
// slot of the receiver's pool and the RX burst fills the poller's own
// vector, so neither the fabric nor the plugin allocates per frame.
func TestSteadyStateZeroAllocRemote(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate measures the plain build")
	}
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes:    []insane.NodeSpec{{Name: "a", DPDK: true}, {Name: "b", DPDK: true}},
		Topology: insane.TopologyDirect,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	const pingCh, pongCh = 1, 2
	var streams [2]*insane.Stream
	for i, name := range []string{"a", "b"} {
		sess, err := cluster.Node(name).InitSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		st, err := sess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
		if err != nil {
			t.Fatal(err)
		}
		if st.Technology() != "dpdk" {
			t.Fatalf("fast stream on %s mapped to %s, want dpdk", name, st.Technology())
		}
		streams[i] = st
	}
	pingSink, err := streams[1].CreateSink(pingCh, nil)
	if err != nil {
		t.Fatal(err)
	}
	pongSink, err := streams[0].CreateSink(pongCh, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct {
		node    string
		channel int
	}{{"a", pingCh}, {"b", pongCh}} {
		deadline := time.Now().Add(5 * time.Second)
		for cluster.Node(sub.node).SubscriberCount(sub.channel) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("node %s never learned of the subscriber of channel %d", sub.node, sub.channel)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	pingSrc, err := streams[0].CreateSource(pingCh)
	if err != nil {
		t.Fatal(err)
	}
	pongSrc, err := streams[1].CreateSource(pongCh)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	oneWay := func(src *insane.Source, sink *insane.Sink) {
		buf, err := src.GetBuffer(64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Emit(buf, 64); err != nil {
			t.Fatal(err)
		}
		msg, err := sink.ConsumeContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sink.Release(msg)
	}
	op := func() {
		oneWay(pingSrc, pingSink)
		oneWay(pongSrc, pongSink)
	}
	for i := 0; i < 500; i++ {
		op()
	}
	samples := cluster.Node("b").Metrics().StageRecv.Count
	var avg float64
	for attempt := 0; attempt < 2; attempt++ {
		if avg = testing.AllocsPerRun(gateRuns, op); avg == 0 {
			break
		}
	}
	if avg != 0 {
		t.Fatalf("steady-state remote path allocates: %.2f allocs/op, want 0", avg)
	}
	if got := cluster.Node("b").Metrics().StageRecv.Count - samples; got < 2 {
		t.Errorf("the gate saw %d sampled messages cross the fabric, want >= 2", got)
	}
	for _, name := range []string{"a", "b"} {
		if m := cluster.Node(name).Metrics(); m.TechDowngrades != 0 || m.RxMessages == 0 {
			t.Errorf("node %s: %d downgrades, %d messages received; the gate must have measured the DPDK plane", name, m.TechDowngrades, m.RxMessages)
		}
	}
}

// gateRuns is the op count of one allocation measurement: more than two
// sampling periods, so each run times sampled messages — clock reads and
// histogram observations — as well as the 63 in 64 that skip both.
const gateRuns = 200

// gateZeroAlloc holds one shape — size-byte messages from one source to
// fanout sinks, queued or run to completion — at 0 allocs/op.
func gateZeroAlloc(t *testing.T, size, fanout int, rtc bool) {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close) // after the session openFanout registers
	src, sinks := openFanout(t, cluster.Node("a"), fanout, insane.WithRunToCompletion(rtc))

	// One deadline context reused across every op: a fresh context per op
	// would allocate and fail the gate for the wrong reason.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	held := make([]*insane.Message, fanout)
	op := func() { fanoutRound(t, ctx, src, sinks, held, size) }

	// Warm the wrapper pools, poller env caches and topology snapshots:
	// first messages pay one-time costs by design.
	for i := 0; i < 500; i++ {
		op()
	}

	// Retry once: AllocsPerRun is precise about mallocs but shares the
	// process with the Go runtime itself (e.g. a background GC starting
	// mid-run can allocate), so a single nonzero reading gets one
	// re-check before it fails the build.
	samples := cluster.Node("a").Metrics().StageRecv.Count
	var avg float64
	for attempt := 0; attempt < 2; attempt++ {
		avg = testing.AllocsPerRun(gateRuns, op)
		if avg == 0 {
			break
		}
	}
	if avg != 0 {
		t.Fatalf("steady-state publish path allocates: %.2f allocs/op, want 0", avg)
	}
	if got := cluster.Node("a").Metrics().StageRecv.Count - samples; got < 2*uint64(fanout) {
		t.Errorf("the gate saw %d consumed samples, want >= %d: a sampled message's clock reads and observations are inside it", got, 2*fanout)
	}
	if rtc {
		// The gate must have measured the fast path, not a fallback.
		s := cluster.Node("a").Stats()
		if s.RTCDeliveries == 0 || s.RTCFallbacks != 0 {
			t.Errorf("RTC gate: deliveries=%d fallbacks=%d, want >0/0",
				s.RTCDeliveries, s.RTCFallbacks)
		}
		if m := cluster.Node("a").Metrics(); m.RTCDeliveries != m.Emits*uint64(fanout) {
			t.Errorf("RTC gate: %d deliveries for %d emits, want %d per emit", m.RTCDeliveries, m.Emits, fanout)
		}
	}
}
