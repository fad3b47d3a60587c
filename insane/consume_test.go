package insane_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

// oneNode opens a single-node cluster with one session and one stream, the
// rig of the co-located consume tests.
func oneNode(t *testing.T, opts ...insane.Option) (*insane.Cluster, *insane.Session, *insane.Stream) {
	t.Helper()
	c, err := insane.NewCluster(insane.ClusterOptions{Nodes: []insane.NodeSpec{{Name: "edge-1"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	sess, err := c.Node("edge-1").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.CreateStreamOpts(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, sess, st
}

// waitQueued waits until n deliveries sit in the sink's ring.
func waitQueued(t *testing.T, k *insane.Sink, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for k.Available() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d deliveries queued after 2 s", k.Available(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// countingCtx counts every look ConsumeContext takes at its context.
type countingCtx struct {
	context.Context
	looks int
}

func (c *countingCtx) Deadline() (time.Time, bool) { c.looks++; return c.Context.Deadline() }
func (c *countingCtx) Done() <-chan struct{}       { c.looks++; return c.Context.Done() }
func (c *countingCtx) Err() error                  { c.looks++; return c.Context.Err() }

// TestConsumeReadySkipsContext pins the pop-first contract of
// ConsumeContext: a delivery that is already queued is returned without a
// single call into the context — even an expired one — and the context
// decides only the call that finds the sink empty.
func TestConsumeReadySkipsContext(t *testing.T) {
	_, _, st := oneNode(t)
	sink, err := st.CreateSink(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(3)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"live context", context.Background()},
		{"expired context", expired},
	} {
		send(t, src, []byte(tc.name))
		waitQueued(t, sink, 1)
		ctx := &countingCtx{Context: tc.ctx}
		m, err := sink.ConsumeContext(ctx)
		if err != nil {
			t.Fatalf("%s, delivery queued: ConsumeContext = %v, want the delivery", tc.name, err)
		}
		if string(m.Payload) != tc.name {
			t.Errorf("%s: payload = %q", tc.name, m.Payload)
		}
		sink.Release(m)
		if ctx.looks != 0 {
			t.Errorf("%s, delivery queued: %d calls into the context, want 0", tc.name, ctx.looks)
		}
	}

	ctx := &countingCtx{Context: expired}
	if _, err := sink.ConsumeContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired context, empty sink: ConsumeContext = %v, want context.DeadlineExceeded", err)
	}
	if ctx.looks == 0 {
		t.Error("expired context, empty sink: the context was never consulted")
	}
}

// waitBlockedConsumers waits until n goroutines are parked in the blocking
// consume's select, so a close that follows is a close while waiting and
// not a close the consumers find on arrival.
func waitBlockedConsumers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		blocked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "core.(*SinkHandle).Consume") {
				blocked++
			}
		}
		if blocked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d consumers blocked after 5 s", blocked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockedConsumeReturns parks waiters goroutines in
// ConsumeContext(context.Background()) on one sink, closes something with
// closeIt, and requires every waiter back with ErrClosed and no goroutine
// left behind. The notify channel is one deep and wakes one waiter, so
// the close signal has to be one every waiter sees.
func blockedConsumeReturns(t *testing.T, waiters int, closeIt func(*insane.Session, *insane.Sink)) {
	before := goroutineSites()
	c, sess, st := oneNode(t)
	sink, err := st.CreateSink(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			m, err := sink.ConsumeContext(context.Background())
			if err == nil {
				sink.Release(m)
			}
			errc <- err
		}()
	}
	waitBlockedConsumers(t, waiters)
	closeIt(sess, sink)
	timeout := time.After(2 * time.Second)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, insane.ErrClosed) {
				t.Errorf("blocked consume returned %v, want ErrClosed", err)
			}
		case <-timeout:
			t.Fatalf("ConsumeContext still blocked 2 s after the close (%d of %d waiters back)", i, waiters)
		}
	}
	sess.Close()
	c.Close()
	requireNoLeak(t, before)
}

func TestBlockedConsumeReturnsOnSinkClose(t *testing.T) {
	for _, waiters := range []int{1, 4} {
		blockedConsumeReturns(t, waiters, func(_ *insane.Session, k *insane.Sink) { k.Close() })
	}
}

func TestBlockedConsumeReturnsOnSessionClose(t *testing.T) {
	for _, waiters := range []int{1, 4} {
		blockedConsumeReturns(t, waiters, func(s *insane.Session, _ *insane.Sink) {
			if err := s.Close(); err != nil {
				t.Errorf("session close: %v", err)
			}
		})
	}
}

// TestBlockedConsumeReturnsOnCloseOrCancelInYield closes the sink, or
// cancels the context, right after ConsumeContext starts on an empty sink,
// without waiting for it to block: the close or the cancel lands before the
// call, inside the yields Consume runs before it blocks, or in the wait
// itself, and in each case the call returns ErrClosed or the context's
// error.
func TestBlockedConsumeReturnsOnCloseOrCancelInYield(t *testing.T) {
	const rounds = 200
	for _, closeSink := range []bool{true, false} {
		c, _, st := oneNode(t)
		for i := 0; i < rounds; i++ {
			sink, err := st.CreateSink(5, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				m, err := sink.ConsumeContext(ctx)
				if err == nil {
					sink.Release(m)
				}
				errc <- err
			}()
			want := context.Canceled
			if closeSink {
				want = insane.ErrClosed
				sink.Close()
			} else {
				cancel()
			}
			select {
			case err := <-errc:
				if !errors.Is(err, want) {
					t.Fatalf("round %d: ConsumeContext returned %v, want %v", i, err, want)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("round %d: ConsumeContext still blocked 2 s after the close or cancel", i)
			}
			cancel()
			sink.Close()
		}
		c.Close()
	}
}

// TestConsumeParksCountsBlockedWaits: consume_parks counts the waits in
// which a blocking Consume went to sleep, and nothing else — not a Consume
// that found its message queued, and not the yields before the one park of
// a wait on an empty sink.
func TestConsumeParksCountsBlockedWaits(t *testing.T) {
	c, _, st := oneNode(t)
	n := c.Node("edge-1")
	sink, err := st.CreateSink(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(6)
	if err != nil {
		t.Fatal(err)
	}
	const queued = 10
	for i := 0; i < queued; i++ {
		send(t, src, []byte("queued"))
	}
	deadline := time.Now().Add(2 * time.Second)
	for sink.Available() < queued {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d messages queued after 2 s", sink.Available(), queued)
		}
		time.Sleep(100 * time.Microsecond)
	}
	parks := n.Metrics().ConsumeParks
	for i := 0; i < queued; i++ {
		m, err := sink.ConsumeContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sink.Release(m)
	}
	if got := n.Metrics().ConsumeParks - parks; got != 0 {
		t.Errorf("%d queued messages consumed with %d parks, want 0", queued, got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sink.ConsumeContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ConsumeContext on an empty sink = %v, want the deadline", err)
	}
	if got := n.Metrics().ConsumeParks - parks; got != 1 {
		t.Errorf("one wait on an empty sink counted %d parks, want 1", got)
	}
}

// TestStageHistogramsSkipZeroCharge: a charge is not a sample. The latency
// histograms hold intervals between clock readings of sampled messages and
// nothing else, so virtual time a message was charged for — processing
// added by a layered middleware, here on the very message that is sampled
// — reaches the message's Breakdown and no histogram, and a stage the
// message never entered (co-located traffic is not framed) stays empty
// while every counter counts each message.
func TestStageHistogramsSkipZeroCharge(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []insane.Option
	}{
		{"queued", nil},
		{"run-to-completion", []insane.Option{insane.WithRunToCompletion(true)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c, _, st := oneNode(t, mode.opts...)
			sink, err := st.CreateSink(4, nil)
			if err != nil {
				t.Fatal(err)
			}
			src, err := st.CreateSource(4)
			if err != nil {
				t.Fatal(err)
			}
			// The 65th message is the second sample, and a charged one.
			const plain, charged = 60, 7
			for i := 0; i < plain+charged; i++ {
				b, err := src.GetBuffer(8)
				if err != nil {
					t.Fatal(err)
				}
				if i >= plain {
					b.AddProcessing(3 * time.Microsecond)
				}
				if _, err := src.Emit(b, 8); err != nil {
					t.Fatal(err)
				}
				m, err := consumeWithin(sink, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if _, network, _, processing := m.Breakdown(); network != 0 || (processing != 0) != (i >= plain) {
					t.Fatalf("message %d: network %v, processing %v", i, network, processing)
				}
				sink.Release(m)
			}
			m := c.Node("edge-1").Metrics()
			const total = plain + charged
			if m.Emits != total || m.Consumes != total {
				t.Errorf("Emits = %d, Consumes = %d, want %d each", m.Emits, m.Consumes, total)
			}
			for _, h := range []struct {
				name string
				got  uint64
				want uint64
			}{
				{"ConsumeLatency", m.ConsumeLatency.Count, samplesOf(total)},
				{"StageSend", m.StageSend.Count, samplesOf(total)},
				{"StageRecv", m.StageRecv.Count, samplesOf(total)},
				{"StageProcessing", m.StageProcessing.Count, 0},
			} {
				if h.got != h.want {
					t.Errorf("%s.Count = %d, want %d", h.name, h.got, h.want)
				}
			}
		})
	}
}
