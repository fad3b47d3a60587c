package insane_test

import (
	"context"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

// asleep is the number of a node's pollers parked right now: every park
// ends in exactly one counted wake.
func asleep(n *insane.Node) uint64 {
	m := n.Metrics()
	return m.PollerParks - m.PollerWakesTX - m.PollerWakesRX - m.PollerWakesGateTimer
}

// TestParkedPollersWakeOnTraffic is the lost-wake test of the idle
// policy: a ping-pong across the fabric in which every ping leaves with
// all pollers of both nodes parked, so the only thing that can move it is
// the Emit's ring on the near side and the port's RX doorbell on the far
// side. A lost wake would hang the ping; each one carries a 50 ms
// deadline instead.
func TestParkedPollersWakeOnTraffic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  insane.NodeSpec
		pings int
	}{
		{"one poller per plugin", insane.NodeSpec{DPDK: true}, 2000},
		{"two pollers per plugin", insane.NodeSpec{DPDK: true, PollersPerPlugin: 2}, 500},
	} {
		t.Run(tc.name, func(t *testing.T) { pingParked(t, tc.spec, tc.pings) })
	}
}

func pingParked(t *testing.T, spec insane.NodeSpec, pings int) {
	const ping, pong, rttLimit = 1, 2, 50 * time.Millisecond
	c := twoNodes(t, spec)
	a, b := c.Node("edge-1"), c.Node("edge-2")
	pollers := uint64(len(a.Technologies()) * max(1, spec.PollersPerPlugin))

	open := func(n *insane.Node, out, in int) (*insane.Source, *insane.Sink) {
		sess, err := n.InitSession()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		st, err := sess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
		if err != nil {
			t.Fatal(err)
		}
		sink, err := st.CreateSink(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		src, err := st.CreateSource(out)
		if err != nil {
			t.Fatal(err)
		}
		return src, sink
	}
	srcA, sinkA := open(a, ping, pong)
	srcB, sinkB := open(b, pong, ping)
	waitSubs(t, a, ping, 1)
	waitSubs(t, b, pong, 1)

	ctx, cancel := context.WithCancel(context.Background())
	echoed := make(chan error, 1)
	go func() {
		for {
			msg, err := sinkB.ConsumeContext(ctx)
			if err != nil {
				echoed <- nil // canceled: the test is over
				return
			}
			buf, err := srcB.GetBuffer(len(msg.Payload))
			if err == nil {
				copy(buf.Payload, msg.Payload)
				_, err = srcB.Emit(buf, len(msg.Payload))
			}
			sinkB.Release(msg)
			if err != nil {
				echoed <- err
				return
			}
		}
	}()
	defer func() {
		cancel()
		if err := <-echoed; err != nil {
			t.Errorf("echo: %v", err)
		}
	}()

	var worst time.Duration
	for i := 0; i < pings; i++ {
		time.Sleep(300 * time.Microsecond)
		parkBy := time.Now().Add(rttLimit)
		for asleep(a) != pollers || asleep(b) != pollers {
			if time.Now().After(parkBy) {
				t.Fatalf("ping %d: %d and %d of %d idle pollers parked", i, asleep(a), asleep(b), pollers)
			}
			time.Sleep(50 * time.Microsecond)
		}
		start := time.Now()
		send(t, srcA, []byte("ping"))
		msg, err := consumeWithin(sinkA, rttLimit)
		if err != nil {
			t.Fatalf("ping %d: no pong within %v (a lost wake?): %v", i, rttLimit, err)
		}
		worst = max(worst, time.Since(start))
		sinkA.Release(msg)
	}
	if worst >= rttLimit {
		t.Errorf("worst RTT %v, want under %v", worst, rttLimit)
	}
	// Node b's pollers were asleep whenever a ping arrived: only the
	// port's doorbell can have woken them.
	if got := b.Metrics().PollerWakesRX; got < uint64(pings) {
		t.Errorf("poller_wakes_rx on the echo node = %d, want >= %d pings", got, pings)
	}
	m := a.Metrics()
	t.Logf("%d pings, worst RTT %v; sending node: %d parks, wakes tx=%d rx=%d gate=%d, %d idle passes", pings, worst,
		m.PollerParks, m.PollerWakesTX, m.PollerWakesRX, m.PollerWakesGateTimer, m.PollerIdlePasses)
}

// TestLocalPingWakesParked is pingParked's co-located sibling: one node, a
// queued stream, and every ping emitted with all of the node's pollers
// parked. The poller that serves the stream yields and re-polls after each
// delivery before it arms and parks (DESIGN.md §15), and the consumer
// yields before it blocks, so this is the lost-wake test of that order:
// only the Emit's ring can move the ping, and a lost one fails it at
// 50 ms.
func TestLocalPingWakesParked(t *testing.T) {
	const pings, limit = 2000, 50 * time.Millisecond
	c, _, st := oneNode(t)
	n := c.Node("edge-1")
	pollers := uint64(len(n.Technologies()))
	sink, err := st.CreateSink(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(1)
	if err != nil {
		t.Fatal(err)
	}

	var worst time.Duration
	for i := 0; i < pings; i++ {
		parkBy := time.Now().Add(limit)
		for asleep(n) != pollers {
			if time.Now().After(parkBy) {
				t.Fatalf("ping %d: %d of %d idle pollers parked", i, asleep(n), pollers)
			}
			time.Sleep(20 * time.Microsecond)
		}
		start := time.Now()
		send(t, src, []byte("ping"))
		msg, err := consumeWithin(sink, limit)
		if err != nil {
			t.Fatalf("ping %d: not delivered within %v (a lost wake?): %v", i, limit, err)
		}
		worst = max(worst, time.Since(start))
		sink.Release(msg)
	}
	// Every ping found the stream's poller asleep: only the Emit's ring can
	// have woken it.
	m := n.Metrics()
	if m.PollerWakesTX < pings {
		t.Errorf("poller_wakes_tx = %d, want >= %d pings", m.PollerWakesTX, pings)
	}
	t.Logf("%d pings, worst %v: %d poller parks, wakes tx=%d rx=%d gate=%d, %d idle passes, %d consume parks", pings, worst,
		m.PollerParks, m.PollerWakesTX, m.PollerWakesRX, m.PollerWakesGateTimer, m.PollerIdlePasses, m.ConsumeParks)
}
