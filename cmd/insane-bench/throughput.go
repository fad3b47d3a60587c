// Multi-core throughput mode (-throughput): drives pollers × streams
// worth of concurrent emit→deliver→consume traffic through one node and
// reports aggregate packets/sec plus per-stage virtual-time breakdowns
// from the runtime's telemetry. This is the scaling axis of the paper's
// §8 receive-side parallelism discussion: the hot-path suite proves the
// single-message latency floor, this mode proves the rate holds up when
// every core is busy.

package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/internal/bench"
)

// throughputPollerPoints are the polling-thread counts the committed
// baseline records (pps at 1, 2 and 4 pollers per plugin).
var throughputPollerPoints = []int{1, 2, 4}

// runThroughput measures the throughput suite and prints the results;
// used both standalone (-throughput) and by the baseline writer.
func runThroughput(packetsPerStream int) ([]bench.ThroughputResult, error) {
	results := make([]bench.ThroughputResult, 0, len(throughputPollerPoints))
	for _, pollers := range throughputPollerPoints {
		streams := pollers * 2 // keep every poller fed by two producers
		res, err := measureThroughput(
			fmt.Sprintf("throughput/64B-%dp", pollers),
			pollers, streams, 64, packetsPerStream)
		if err != nil {
			return nil, err
		}
		fmt.Println(res)
		results = append(results, res)
	}
	return results, nil
}

// measureThroughput runs streams concurrent producer/consumer pairs on
// one node with the given polling-thread count. Each stream gets its own
// session (hence its own single-producer TX lane) and its own channel,
// so the topology exercises the per-(session,technology) lane design
// rather than serializing on a shared ring.
func measureThroughput(name string, pollers, streams, size, packets int) (bench.ThroughputResult, error) {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "a", PollersPerPlugin: pollers}},
	})
	if err != nil {
		return bench.ThroughputResult{}, err
	}
	defer cluster.Close()
	node := cluster.Node("a")

	type pair struct {
		src  *insane.Source
		sink *insane.Sink
	}
	pairs := make([]pair, streams)
	sessions := make([]*insane.Session, streams)
	for i := 0; i < streams; i++ {
		sess, err := node.InitSession()
		if err != nil {
			return bench.ThroughputResult{}, err
		}
		sessions[i] = sess
		st, err := sess.CreateStreamOpts()
		if err != nil {
			return bench.ThroughputResult{}, err
		}
		sink, err := st.CreateSink(100+i, nil)
		if err != nil {
			return bench.ThroughputResult{}, err
		}
		src, err := st.CreateSource(100 + i)
		if err != nil {
			return bench.ThroughputResult{}, err
		}
		pairs[i] = pair{src: src, sink: sink}
	}
	defer func() {
		for _, s := range sessions {
			_ = s.Close()
		}
	}()

	// Warm the wrapper pools and topology caches before timing.
	for _, p := range pairs {
		for w := 0; w < 64; w++ {
			if err := pumpOne(p.src, p.sink, size); err != nil {
				return bench.ThroughputResult{}, fmt.Errorf("warmup: %w", err)
			}
		}
	}

	before := node.Metrics()
	delivered := make([]int, streams)
	errs := make(chan error, streams)
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, p pair) {
			defer wg.Done()
			n, err := pumpWindows(p.src, p.sink, size, packets)
			delivered[i] = n
			if err != nil {
				errs <- err
			}
		}(i, p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return bench.ThroughputResult{}, err
	}

	m := node.Metrics()
	total := 0
	for _, n := range delivered {
		total += n
	}
	// A message that was emitted and not delivered must be in the drop
	// ledger; the rate counts delivered messages only.
	dropped := m.DroppedBackpressure - before.DroppedBackpressure
	if lost := uint64(streams*packets - total); lost != dropped {
		return bench.ThroughputResult{}, fmt.Errorf("%s: %d messages not delivered, %d counted as dropped on a full sink ring", name, lost, dropped)
	}
	return bench.ThroughputResult{
		Name:             name,
		Pollers:          pollers,
		Streams:          streams,
		Packets:          total,
		Dropped:          dropped,
		EmitBackpressure: m.EmitBackpressure - before.EmitBackpressure,
		Elapsed:          elapsed.Seconds(),
		PacketsPerSec:    float64(total) / elapsed.Seconds(),
		SchedDwellNs:     float64(m.SchedDwell.Mean.Nanoseconds()),
		DeliverNs:        float64(m.DeliverLatency.Mean.Nanoseconds()),
	}, nil
}

// throughputWindow is how many messages a stream has in flight at most:
// half the depth of the session TX lane and of the sink ring (1024 each),
// so a producer that outruns its consumer — any machine with a core per
// goroutine — cannot overrun either.
const throughputWindow = 512

// lostGrace bounds the wait for the rest of a window once the sink has
// gone quiet: a message still missing then is lost, and is reported as
// such instead of being waited for.
const lostGrace = 2 * time.Second

// pumpWindows moves packets messages over one stream pair in closed
// windows — emit up to throughputWindow back to back, then consume them
// — and returns how many were delivered.
func pumpWindows(src *insane.Source, sink *insane.Sink, size, packets int) (int, error) {
	delivered := 0
	for sent := 0; sent < packets; {
		window := min(throughputWindow, packets-sent)
		for n := 0; n < window; n++ {
			if err := emitRetry(src, size); err != nil {
				return delivered, err
			}
		}
		sent += window
		// One deadline context per window keeps ConsumeContext on the
		// allocation-free pooled-timer path.
		ctx, cancel := context.WithTimeout(context.Background(), lostGrace)
		for n := 0; n < window; n++ {
			msg, err := sink.ConsumeContext(ctx)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					break // the rest of the window was dropped
				}
				cancel()
				return delivered, err
			}
			sink.Release(msg)
			delivered++
		}
		cancel()
	}
	return delivered, nil
}

// pumpOne sends and consumes a single message on one stream pair.
func pumpOne(src *insane.Source, sink *insane.Sink, size int) error {
	if err := emitRetry(src, size); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	msg, err := sink.ConsumeContext(ctx)
	if err != nil {
		return err
	}
	sink.Release(msg)
	return nil
}

// emitRetry emits one message, retrying transient backpressure: a full
// TX lane or exhausted slot pool just means the consumer side is
// behind. Retries yield — and, when the pressure persists, sleep — so
// a spinning producer cannot starve the polling threads on a machine
// with few cores.
func emitRetry(src *insane.Source, size int) error {
	var buf *insane.Buffer
	for attempt := 0; attempt < 1_000_000; attempt++ {
		var err error
		if buf == nil {
			buf, err = src.GetBuffer(size)
		}
		if err == nil {
			// On ErrBackpressure ownership stays with us: retry the same
			// buffer next pass.
			if _, err = src.Emit(buf, size); err == nil {
				return nil
			}
			if !errors.Is(err, insane.ErrBackpressure) {
				src.Abort(buf)
				return err
			}
		} else if !errors.Is(err, insane.ErrNoBuffers) {
			return err
		}
		if attempt%256 == 255 {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
	if buf != nil {
		src.Abort(buf)
	}
	return errors.New("emit: backpressure never cleared")
}
