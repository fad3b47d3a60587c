package apps

// The INSANE version of the benchmarking application (Table 3 row
// "INSANE"): the whole networking logic is a stream with a QoS hint, a
// source/sink pair per direction, and borrow/emit/consume/release calls.
// No sockets, no frames, no mempools, no polling loops.

import (
	"context"
	"time"

	"github.com/insane-mw/insane/insane"
)

// InsanePingPong measures rounds round trips of payload bytes through the
// INSANE API; fast selects the accelerated datapath QoS.
func InsanePingPong(cluster *insane.Cluster, payload, rounds int, fast bool) []time.Duration {
	opt := insane.WithDatapath(insane.Slow)
	if fast {
		opt = insane.WithDatapath(insane.Fast)
	}
	const pingCh, pongCh = 1001, 1002

	// Calls on one cluster reuse the channels: return only once the peers
	// dropped this call's subscriptions, or the next call's wait can see a
	// stale one and send its first ping to nobody when the UNSUB lands.
	defer waitSubscribers(cluster.Nodes()[0], pingCh, 0)
	defer waitSubscribers(cluster.Nodes()[1], pongCh, 0)
	sessA, err := cluster.Nodes()[0].InitSession()
	check(err, "session A")
	defer sessA.Close()
	sessB, err := cluster.Nodes()[1].InitSession()
	check(err, "session B")
	defer sessB.Close()

	streamA, err := sessA.CreateStreamOpts(opt)
	check(err, "stream A")
	streamB, err := sessB.CreateStreamOpts(opt)
	check(err, "stream B")

	pingSink, err := streamB.CreateSink(pingCh, nil)
	check(err, "ping sink")
	pongSink, err := streamA.CreateSink(pongCh, nil)
	check(err, "pong sink")
	waitSubscribers(cluster.Nodes()[0], pingCh, 1)
	waitSubscribers(cluster.Nodes()[1], pongCh, 1)
	pingSrc, err := streamA.CreateSource(pingCh)
	check(err, "ping source")
	pongSrc, err := streamB.CreateSource(pongCh)
	check(err, "pong source")

	// Echo server: consume the ping, emit it back on the pong channel.
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		// One reusable deadline context keeps the echo loop
		// allocation-free: a fresh context per round would allocate.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		for i := 0; i < rounds; i++ {
			req, err := pingSink.ConsumeContext(ctx)
			if err != nil {
				return
			}
			resp, err := pongSrc.GetBuffer(len(req.Payload))
			if err != nil {
				pingSink.Release(req)
				return
			}
			copy(resp.Payload, req.Payload)
			resp.ContinueFrom(req)
			if _, err := pongSrc.Emit(resp, len(req.Payload)); err != nil {
				pongSrc.Abort(resp)
				pingSink.Release(req)
				return
			}
			pingSink.Release(req)
		}
	}()

	// Client: emit the ping, consume the pong, record the round trip.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	rtts := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		buf, err := pingSrc.GetBuffer(payload)
		if err != nil {
			break
		}
		if _, err := pingSrc.Emit(buf, payload); err != nil {
			break
		}
		pong, err := pongSink.ConsumeContext(ctx)
		if err != nil {
			break
		}
		rtts = append(rtts, pong.Latency)
		pongSink.Release(pong)
	}
	<-serverDone
	return rtts
}

// waitSubscribers spins until the node counts want remote subscribers on
// the channel.
func waitSubscribers(n *insane.Node, channel, want int) {
	deadline := time.Now().Add(2 * time.Second)
	for n.SubscriberCount(channel) != want && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}
