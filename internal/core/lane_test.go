package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
)

// emitTagged emits one 8-byte message carrying the source's tag and a
// per-source sequence number, retrying on backpressure.
func emitTagged(src *SourceHandle, tag byte, n uint32) error {
	var b Buffer
	if err := src.GetBuffer(&b, 8); err != nil {
		return err
	}
	b.Payload[0] = tag
	binary.LittleEndian.PutUint32(b.Payload[1:], n)
	for {
		_, err := src.Emit(&b, 8)
		if !errors.Is(err, ErrBackpressure) {
			return err
		}
		time.Sleep(5 * time.Microsecond)
	}
}

// TestLaneFIFOConcurrentSources: every source of a session shares the
// session's one TX ring, so each source's messages reach the sink in the
// order it emitted them however many sources emit concurrently — one
// ring, one order, no protocol.
func TestLaneFIFOConcurrentSources(t *testing.T) {
	for _, sources := range []int{2, 4} {
		w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
		next := runConcurrentSources(t, w.a, sources, func(tag byte, n, want uint32) {
			if n != want {
				t.Fatalf("%d sources: source %c out of order: got %d, want %d", sources, tag, n, want)
			}
		})
		for tag, n := range next {
			if n != perSourceMsgs {
				t.Errorf("%d sources: source %c delivered %d of %d", sources, tag, n, perSourceMsgs)
			}
		}
	}
}

// TestLaneMPMCUnderMultiPoller: with several polling threads per plugin
// the lane has several consumers as well as several producers. Two
// pollers dispatch the bursts they popped independently, so the runtime
// promises no order across them (TestMultiPollerPerPlugin); what the ring
// must still give is every message of every source exactly once.
func TestLaneMPMCUnderMultiPoller(t *testing.T) {
	for _, sources := range []int{2, 4} {
		w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) {
			c.PollersPerPlugin = 2
		})
		seen := make(map[byte]map[uint32]bool)
		runConcurrentSources(t, w.a, sources, func(tag byte, n, _ uint32) {
			if seen[tag] == nil {
				seen[tag] = make(map[uint32]bool)
			}
			if seen[tag][n] {
				t.Fatalf("%d sources: source %c message %d delivered twice", sources, tag, n)
			}
			seen[tag][n] = true
		})
		for tag, s := range seen {
			if len(s) != perSourceMsgs {
				t.Errorf("%d sources: source %c delivered %d distinct of %d", sources, tag, len(s), perSourceMsgs)
			}
		}
	}
}

// perSourceMsgs is what each source of runConcurrentSources emits: a few
// ring depths in total, so the lane wraps several times.
const perSourceMsgs = 2000

// runConcurrentSources opens n sources on one session and channel, has
// each emit perSourceMsgs tagged messages from its own goroutine, and
// hands every delivery to check with the count already seen from that
// source. Emitters take a credit per message and the consumer returns it,
// which keeps the messages in flight under the sink ring's depth: none is
// dropped there, so every gap is the lane's. It returns the per-source
// delivery counts.
func runConcurrentSources(t *testing.T, rt *Runtime, n int, check func(tag byte, seq, seen uint32)) map[byte]uint32 {
	t.Helper()
	conn, err := rt.Connect()
	if err != nil {
		t.Fatal(err)
	}
	// On any exit, release the emitters and then wait for them: none may
	// outlive the test.
	var wg sync.WaitGroup
	credits := make(chan struct{}, rxRingDepth/2)
	stop := make(chan struct{})
	defer wg.Wait()
	defer close(stop)
	defer conn.Close()
	st, err := conn.OpenStream(qos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := st.CreateSink(44)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		src, err := st.CreateSource(44)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			for m := uint32(0); m < perSourceMsgs; m++ {
				select {
				case credits <- struct{}{}:
				case <-stop:
					return
				}
				if err := emitTagged(src, tag, m); err != nil {
					t.Errorf("source %c emit %d: %v", tag, m, err)
					return
				}
			}
		}(byte('a' + i))
	}
	next := make(map[byte]uint32, n)
	for i := 0; i < n*perSourceMsgs; i++ {
		var d Delivery
		if err := consumeWithin(sink, &d, 5*time.Second); err != nil {
			t.Fatalf("consume %d of %d: %v", i, n*perSourceMsgs, err)
		}
		tag, seq := d.Payload[0], binary.LittleEndian.Uint32(d.Payload[1:])
		check(tag, seq, next[tag])
		next[tag]++
		sink.Release(&d)
		<-credits
	}
	return next
}

// TestSecondSourceSharesBackloggedLane: opening another source while the
// session's lane holds a backlog is a map lookup — it neither waits for
// the backlog to drain nor holds any emitter back — and the ring's whole
// depth stays usable by the sources together. The pollers are stopped
// first so the backlog stays put; detaching the session then settles the
// tokens of both sources from the one ring (tx_reclaims).
func TestSecondSourceSharesBackloggedLane(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	first, err := st.CreateSource(42)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.a.Close(); err != nil {
		t.Fatal(err)
	}
	emit := func(src *SourceHandle) error {
		var b Buffer
		if err := src.GetBuffer(&b, 8); err != nil {
			t.Fatal(err)
		}
		_, err = src.Emit(&b, 8)
		if err != nil {
			src.Abort(&b)
		}
		return err
	}
	const backlog = txRingDepth / 2
	for i := 0; i < backlog; i++ {
		if err := emit(first); err != nil {
			t.Fatalf("backlog emit %d: %v", i, err)
		}
	}

	// Best of several, so a loaded box (the race detector, a sibling test
	// binary on the other core) cannot fail the bound; a creation that
	// waits on the backlog misses it every time.
	var second *SourceHandle
	fastest := time.Hour
	for i := 0; i < 20; i++ {
		start := time.Now()
		second, err = st.CreateSource(42)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < fastest {
			fastest = d
		}
	}
	if fastest >= time.Millisecond {
		t.Errorf("CreateSource behind a %d-token backlog took %v, want < 1ms", backlog, fastest)
	}

	for i := backlog; i < txRingDepth; i++ {
		src := first
		if i%2 == 1 {
			src = second
		}
		if err := emit(src); err != nil {
			t.Fatalf("emit %d of %d below ring depth: %v", i, txRingDepth, err)
		}
	}
	if err := emit(first); !errors.Is(err, ErrBackpressure) {
		t.Errorf("emit past ring depth = %v, want ErrBackpressure", err)
	}

	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.a.tel.Counter(telemetry.CtrTxReclaims); got != txRingDepth {
		t.Errorf("tx_reclaims = %d, want %d", got, txRingDepth)
	}
}
