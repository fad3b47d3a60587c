package insane_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

// TestMetricsConcurrentPublishers checks the merged telemetry snapshot
// against ground truth: N goroutines publish a known message count, the
// counters must account for every one and the latency histograms for the
// sampled ones — on the node whose clock took both readings.
func TestMetricsConcurrentPublishers(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{DPDK: true})
	const (
		publishers = 4
		perPub     = 200
		channel    = 9
	)

	rx, err := c.Node("edge-2").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rxStream, err := rx.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	if err != nil {
		t.Fatal(err)
	}
	sink, err := rxStream.CreateSink(channel, nil)
	if err != nil {
		t.Fatal(err)
	}

	tx, err := c.Node("edge-1").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	txStream, err := tx.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	if err != nil {
		t.Fatal(err)
	}
	waitSubs(t, c.Node("edge-1"), channel, 1)

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		src, err := txStream.CreateSource(channel)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(src *insane.Source) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				for {
					b, err := src.GetBuffer(16)
					if errors.Is(err, insane.ErrNoBuffers) {
						time.Sleep(5 * time.Microsecond)
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					n := copy(b.Payload, "telemetry")
					if _, err := src.Emit(b, n); err != nil {
						if err == insane.ErrBackpressure {
							src.Abort(b)
							time.Sleep(5 * time.Microsecond)
							continue
						}
						t.Error(err)
						return
					}
					break
				}
			}
		}(src)
	}

	const total = publishers * perPub
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			m, err := consumeWithin(sink, 5*time.Second)
			if err != nil {
				t.Errorf("consume %d: %v", i, err)
				return
			}
			sink.Release(m)
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		t.FailNow()
	}

	mtx := c.Node("edge-1").Metrics()
	mrx := c.Node("edge-2").Metrics()
	if mtx.Emits != total {
		t.Errorf("edge-1 Emits = %d, want %d", mtx.Emits, total)
	}
	if mtx.SchedEnqueues != total || mtx.Dispatches != total {
		t.Errorf("edge-1 enqueues/dispatches = %d/%d, want %d", mtx.SchedEnqueues, mtx.Dispatches, total)
	}
	if mtx.TxMessages != total {
		t.Errorf("edge-1 TxMessages = %d, want %d", mtx.TxMessages, total)
	}
	if mrx.RxMessages != total {
		t.Errorf("edge-2 RxMessages = %d, want %d", mrx.RxMessages, total)
	}
	if mrx.Consumes != total {
		t.Errorf("edge-2 Consumes = %d, want %d", mrx.Consumes, total)
	}
	// No Emit above is refused (800 messages into 1024-deep lanes), so
	// every source sampled exactly its 1st, 65th, 129th and 193rd message.
	sampled := publishers * samplesOf(perPub)
	for _, h := range []struct {
		name string
		got  insane.LatencyStats
		want uint64
	}{
		{"edge-1 EmitPickup", mtx.EmitPickup, sampled},
		{"edge-1 SchedDwell", mtx.SchedDwell, sampled},
		{"edge-1 StageProcessing", mtx.StageProcessing, sampled}, // DPDK: the runtime frames
		{"edge-1 StageSend", mtx.StageSend, sampled},
		{"edge-1 StageRecv", mtx.StageRecv, 0},
		{"edge-2 StageSend", mrx.StageSend, 0},
		{"edge-2 StageRecv", mrx.StageRecv, sampled},
		// Admitted on edge-1's clock, consumed on edge-2's: nobody's interval.
		{"edge-1 ConsumeLatency", mtx.ConsumeLatency, 0},
		{"edge-2 ConsumeLatency", mrx.ConsumeLatency, 0},
	} {
		if h.got.Count != h.want {
			t.Errorf("%s.Count = %d, want %d", h.name, h.got.Count, h.want)
		}
	}
	if mrx.StageRecv.P50 <= 0 || mrx.StageRecv.Max < mrx.StageRecv.P50 {
		t.Errorf("stage_recv quantiles inconsistent: %+v", mrx.StageRecv)
	}
	if mtx.DispatchBatch.Count == 0 || mtx.DispatchBatch.Count > total {
		t.Errorf("dispatch batch count = %d, want 1..%d", mtx.DispatchBatch.Count, total)
	}
	if mtx.Mempool.Gets == 0 || len(mtx.Mempool.Classes) == 0 {
		t.Errorf("mempool metrics missing: %+v", mtx.Mempool)
	}
	for _, cl := range mtx.Mempool.Classes {
		if cl.Free > cl.Capacity {
			t.Errorf("class %d free %d > capacity %d", cl.SlotSize, cl.Free, cl.Capacity)
		}
	}
}

// TestMetricsTelemetryDisabled checks that WithTelemetry(false) keeps a
// stream's messages out of the latency histograms while the counters
// still run.
func TestMetricsTelemetryDisabled(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{DPDK: true})
	rx, _ := c.Node("edge-2").InitSession()
	defer rx.Close()
	rxStream, err := rx.CreateStreamOpts(insane.WithDatapath(insane.Fast), insane.WithTelemetry(false))
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := rxStream.CreateSink(3, nil)
	tx, _ := c.Node("edge-1").InitSession()
	defer tx.Close()
	txStream, err := tx.CreateStreamOpts(insane.WithDatapath(insane.Fast), insane.WithTelemetry(false))
	if err != nil {
		t.Fatal(err)
	}
	waitSubs(t, c.Node("edge-1"), 3, 1)
	src, _ := txStream.CreateSource(3)
	send(t, src, []byte("quiet"))
	m, err := consumeWithin(sink, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sink.Release(m)

	mtx, mrx := c.Node("edge-1").Metrics(), c.Node("edge-2").Metrics()
	if mtx.Emits != 1 || mrx.Consumes != 1 {
		t.Errorf("Emits = %d, Consumes = %d, want 1 and 1 (counters must still run)", mtx.Emits, mrx.Consumes)
	}
	// A source's first message is the one an enabled stream always samples.
	if n := mtx.EmitPickup.Count + mtx.SchedDwell.Count + mtx.StageSend.Count + mtx.StageProcessing.Count + mrx.StageRecv.Count; n != 0 {
		t.Errorf("%d latency samples with telemetry disabled, want 0", n)
	}
}

// TestMetricsEndpoint scrapes the cluster's /metrics endpoint over real
// HTTP and validates the exposition: well-formed families, the required
// per-stage series present, and histogram invariants (+Inf == count).
func TestMetricsEndpoint(t *testing.T) {
	a, b := insane.NodeSpec{DPDK: true}, insane.NodeSpec{DPDK: true}
	a.Name, b.Name = "edge-1", "edge-2"
	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes:       []insane.NodeSpec{a, b},
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if c.MetricsAddr() == "" {
		t.Fatal("MetricsAddr empty after boot")
	}

	rx, _ := c.Node("edge-2").InitSession()
	defer rx.Close()
	rxStream, _ := rx.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	sink, _ := rxStream.CreateSink(5, nil)
	tx, _ := c.Node("edge-1").InitSession()
	defer tx.Close()
	txStream, _ := tx.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	waitSubs(t, c.Node("edge-1"), 5, 1)
	src, _ := txStream.CreateSource(5)
	for i := 0; i < 10; i++ {
		send(t, src, []byte("scrape me"))
		m, err := consumeWithin(sink, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sink.Release(m)
	}

	resp, err := http.Get("http://" + c.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series, types := parsePromText(t, string(body))

	for _, want := range []string{
		"insane_emits_total", "insane_consumes_total", "insane_tx_messages_total",
		"insane_rx_messages_total", "insane_emit_backpressure_total",
		"insane_mempool_gets_total", "insane_mempool_free_slots",
		"insane_sched_queue_depth",
	} {
		if _, ok := series[want]; !ok {
			t.Errorf("series %s missing from scrape", want)
		}
	}
	for _, want := range []string{
		"insane_sched_dwell_seconds", "insane_emit_pickup_seconds",
		"insane_consume_latency_seconds", "insane_stage_send_seconds",
		"insane_stage_recv_seconds",
		"insane_stage_processing_seconds", "insane_txring_occupancy",
		"insane_dispatch_batch",
	} {
		if types[want] != "histogram" {
			t.Errorf("family %s: type %q, want histogram", want, types[want])
		}
		if _, ok := series[want+"_bucket"]; !ok {
			t.Errorf("family %s has no buckets", want)
		}
	}

	// Histogram invariant: the +Inf bucket equals _count per label set.
	for name, samples := range series {
		if !strings.HasSuffix(name, "_bucket") {
			continue
		}
		base := strings.TrimSuffix(name, "_bucket")
		counts := series[base+"_count"]
		for labels, v := range samples {
			if !strings.Contains(labels, `le="+Inf"`) {
				continue
			}
			node := labels[:strings.Index(labels, `,le=`)]
			cnt, ok := counts[node]
			if !ok {
				t.Errorf("%s: no _count for %s", base, node)
				continue
			}
			if v != cnt {
				t.Errorf("%s{%s}: +Inf bucket %v != count %v", base, node, v, cnt)
			}
		}
	}

	// The scrape must show the traffic we generated.
	if v := series["insane_emits_total"][`node="edge-1"`]; v < 10 {
		t.Errorf("edge-1 emits in scrape = %v, want >= 10", v)
	}
	// Ten messages of one source: the first is the sample, taken on the
	// sender up to Send and on the receiver from the pick-up.
	if v := series["insane_stage_send_seconds_count"][`node="edge-1"`]; v != 1 {
		t.Errorf("edge-1 stage_send count = %v, want 1", v)
	}
	if v := series["insane_stage_recv_seconds_count"][`node="edge-2"`]; v != 1 {
		t.Errorf("edge-2 stage_recv count = %v, want 1", v)
	}
}

// parsePromText is a minimal Prometheus text-format validator: it checks
// line well-formedness and returns samples[family][labels] plus the
// declared TYPE per family.
func parsePromText(t *testing.T, text string) (map[string]map[string]float64, map[string]string) {
	t.Helper()
	series := make(map[string]map[string]float64)
	types := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram" {
				t.Fatalf("unknown type in %q", line)
			}
			if _, dup := types[f[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", f[2])
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// name{labels} value
		brace := strings.IndexByte(line, '{')
		space := strings.LastIndexByte(line, ' ')
		if space < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		var name, labels string
		if brace >= 0 && brace < space {
			end := strings.IndexByte(line, '}')
			if end < 0 || end > space {
				t.Fatalf("malformed labels in %q", line)
			}
			name, labels = line[:brace], line[brace+1:end]
		} else {
			name = line[:space]
		}
		var v float64
		if _, err := fmt.Sscanf(line[space+1:], "%g", &v); err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		if series[name] == nil {
			series[name] = make(map[string]float64)
		}
		series[name][labels] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Every sample family must have a TYPE declaration.
	for name := range series {
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name {
				if _, ok := types[b]; ok {
					base = b
					break
				}
			}
		}
		if _, ok := types[base]; !ok {
			t.Errorf("series %s has no TYPE declaration", name)
		}
	}
	return series, types
}

// TestConsumeContext covers the context-aware consume: cancellation,
// deadline, and plain delivery.
func TestConsumeContext(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{DPDK: true})
	rx, _ := c.Node("edge-2").InitSession()
	defer rx.Close()
	rxStream, _ := rx.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	sink, err := rxStream.CreateSink(11, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cancellation unblocks a consumer waiting on an empty sink.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sink.ConsumeContext(ctx)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled consume = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ConsumeContext did not honor cancellation")
	}

	// Deadline expiry surfaces the context's error.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	if _, err := sink.ConsumeContext(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline consume = %v, want context.DeadlineExceeded", err)
	}

	// An already-canceled context on an empty sink returns at once.
	ectx, ecancel := context.WithCancel(context.Background())
	ecancel()
	if _, err := sink.ConsumeContext(ectx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled consume = %v, want context.Canceled", err)
	}

	// And a real delivery still comes through.
	tx, _ := c.Node("edge-1").InitSession()
	defer tx.Close()
	txStream, _ := tx.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	waitSubs(t, c.Node("edge-1"), 11, 1)
	src, _ := txStream.CreateSource(11)
	send(t, src, []byte("with context"))
	gctx, gcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer gcancel()
	m, err := sink.ConsumeContext(gctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Payload) != "with context" {
		t.Errorf("payload = %q", m.Payload)
	}
	// The non-blocking poll is Available() > 0; the sink is drained now.
	if sink.Available() != 0 {
		t.Error("Available after drain != 0")
	}
	sink.Release(m)
	sink.Release(m) // double release is a no-op on a released message
}

// TestSessionCloseIdempotent verifies repeated Close calls are safe and
// that post-close operations report ErrClosed.
func TestSessionCloseIdempotent(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{DPDK: true})
	sess, err := c.Node("edge-1").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.CreateStreamOpts(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sess.Close(); err != nil {
			t.Fatalf("Close #%d = %v", i+1, err)
		}
	}
	if _, err := sess.CreateStreamOpts(); !errors.Is(err, insane.ErrClosed) {
		t.Errorf("CreateStream after Close = %v, want ErrClosed", err)
	}
}

// TestErrorSentinels pins the public error surface: package-own values,
// wired for errors.Is and direct comparison, with no internal leakage.
func TestErrorSentinels(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{}) // kernel only
	sess, err := c.Node("edge-1").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// A mapper hinting at a technology the node lacks falls back to the
	// default strategy instead of failing — hints are best effort.
	st0, err := sess.CreateStreamOpts(insane.WithMapper(func([]string) string { return "rdma" }))
	if err != nil {
		t.Fatalf("unknown mapper hint should fall back, got %v", err)
	}
	if st0.Technology() != "kernel-udp" {
		t.Errorf("fallback tech = %s, want kernel-udp", st0.Technology())
	}

	st, err := sess.CreateStreamOpts()
	if err != nil {
		t.Fatal(err)
	}
	// An empty sink and an expired wait have no sentinel of their own:
	// ConsumeContext reports both as the context's error (TestConsumeContext).

	src, err := st.CreateSource(2)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the jumbo class to surface ErrNoBuffers.
	var held []*insane.Buffer
	defer func() {
		for _, b := range held {
			src.Abort(b)
		}
	}()
	for {
		b, err := src.GetBuffer(8000)
		if err != nil {
			if !errors.Is(err, insane.ErrNoBuffers) || err != insane.ErrNoBuffers {
				t.Errorf("pool exhaustion = %v, want ErrNoBuffers by value", err)
			}
			break
		}
		held = append(held, b)
	}

	sess2, _ := c.Node("edge-1").InitSession()
	sess2.Close()
	if _, err := sess2.CreateStreamOpts(); err != insane.ErrClosed {
		t.Errorf("closed session stream = %v, want ErrClosed by value", err)
	}
}

// TestFunctionalOptions: options map a stream on a live node — fast and
// frugal on a DPDK and RDMA node is RDMA — and a WithMapper strategy is
// consulted and honored.
func TestFunctionalOptions(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{DPDK: true, RDMA: true})
	sess, err := c.Node("edge-1").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	viaOpts, err := sess.CreateStreamOpts(
		insane.WithDatapath(insane.Fast),
		insane.WithResources(insane.Frugal),
		insane.WithTiming(insane.TimeSensitive),
		insane.WithClass(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if viaOpts.Technology() != "rdma" {
		t.Errorf("fast frugal stream mapped to %s, want rdma", viaOpts.Technology())
	}

	picked := false
	st, err := sess.CreateStreamOpts(insane.WithMapper(func(avail []string) string {
		picked = true
		for _, tech := range avail {
			if tech == "rdma" {
				return tech
			}
		}
		return ""
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !picked {
		t.Error("WithMapper strategy never consulted")
	}
	if st.Technology() != "rdma" {
		t.Errorf("mapper stream tech = %s, want rdma", st.Technology())
	}
}

// TestDropAccountingBelowRuntime: the two loss points under the runtime
// — the fabric and the datapath plugins' receive allocation — each show
// up in Node.Metrics(), and each moves only its own counter.
func TestDropAccountingBelowRuntime(t *testing.T) {
	below := func(c *insane.Cluster) (fabric, rxAlloc uint64) {
		for _, name := range []string{"a", "b"} {
			m := c.Node(name).Metrics()
			fabric += m.DroppedFabric
			rxAlloc += m.DroppedRxAlloc
		}
		return fabric, rxAlloc
	}
	// pair boots a two-node cluster with a subscribed remote sink.
	pair := func(t *testing.T, loss float64) (*insane.Cluster, *insane.Source, *insane.Sink) {
		c, err := insane.NewCluster(insane.ClusterOptions{
			Nodes:    []insane.NodeSpec{{Name: "a"}, {Name: "b"}},
			LossRate: loss,
			Seed:     99,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		sessA, _ := c.Node("a").InitSession()
		sessB, _ := c.Node("b").InitSession()
		stA, _ := sessA.CreateStreamOpts()
		stB, _ := sessB.CreateStreamOpts()
		sink, _ := stB.CreateSink(1, nil)
		// The SUB itself may be lost on a lossy link: re-announce until
		// it lands, as TestLossyLinkBestEffort does.
		deadline := time.Now().Add(3 * time.Second)
		for c.Node("a").SubscriberCount(1) == 0 {
			if time.Now().After(deadline) {
				t.Skip("subscription never survived the lossy link")
			}
			extra, _ := stB.CreateSink(1, nil)
			extra.Close()
			time.Sleep(time.Millisecond)
		}
		src, _ := stA.CreateSource(1)
		return c, src, sink
	}
	drain := func(sink *insane.Sink) (received int) {
		for {
			m, err := consumeWithin(sink, 100*time.Millisecond)
			if err != nil {
				return received
			}
			received++
			sink.Release(m)
		}
	}
	const total = 200

	t.Run("lossy link", func(t *testing.T) {
		c, src, sink := pair(t, 0.3)
		fabric0, _ := below(c)
		for i := 0; i < total; i++ {
			send(t, src, []byte{byte(i)})
		}
		received := drain(sink)
		fabric1, rxAlloc := below(c)
		if lost := uint64(total - received); lost == 0 || fabric1-fabric0 != lost {
			t.Errorf("lost %d of %d messages, fabric drops moved by %d", lost, total, fabric1-fabric0)
		}
		if rxAlloc != 0 {
			t.Errorf("rx alloc drops = %d on a link that only loses frames", rxAlloc)
		}
	})

	t.Run("exhausted pool", func(t *testing.T) {
		c, src, sink := pair(t, 0)
		// Borrow every slot of the receiving node, smallest class first
		// (a small request falls back to the larger classes).
		hog, err := c.Node("b").InitSession()
		if err != nil {
			t.Fatal(err)
		}
		hogStream, _ := hog.CreateStreamOpts()
		hogSrc, _ := hogStream.CreateSource(7)
		var held []*insane.Buffer
		for {
			b, err := hogSrc.GetBuffer(1)
			if err != nil {
				break
			}
			held = append(held, b)
		}
		fabric0, rxAlloc0 := below(c)
		for i := 0; i < total; i++ {
			send(t, src, []byte{byte(i)})
		}
		received := drain(sink)
		fabric1, rxAlloc1 := below(c)
		for _, b := range held {
			hogSrc.Abort(b)
		}
		if received != 0 || rxAlloc1-rxAlloc0 != total {
			t.Errorf("received %d of %d with no free slot, rx alloc drops moved by %d", received, total, rxAlloc1-rxAlloc0)
		}
		if fabric1 != fabric0 {
			t.Errorf("fabric drops moved by %d on a lossless link", fabric1-fabric0)
		}
	})
}

// TestMetricsCommittedFollowsTraffic: a node commits pool memory as its
// traffic needs it and keeps it. A fresh node has committed nothing; a
// burst of small messages commits a few chunks of the small class only;
// closing the session frees every slot and keeps what was committed.
func TestMetricsCommittedFollowsTraffic(t *testing.T) {
	c, sess, st := oneNode(t)
	node := c.Node("edge-1")
	classes := func() []insane.MempoolClass { return node.Metrics().Mempool.Classes }
	for _, cl := range classes() {
		if cl.Committed != 0 {
			t.Fatalf("fresh node: class %d committed %d slots, want 0", cl.SlotSize, cl.Committed)
		}
	}

	const burst = 256
	sink, err := st.CreateSink(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(4)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := 0; i < burst; i++ {
		send(t, src, payload)
	}
	waitQueued(t, sink, burst)
	for i := 0; i < burst; i++ {
		m, err := consumeWithin(sink, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sink.Release(m)
	}
	after := classes()
	if len(after) != 2 || after[0].SlotSize != 2048 || after[1].SlotSize != 9216 {
		t.Fatalf("classes = %+v, want the 2048 and 9216 defaults", after)
	}
	if cl := after[0]; cl.Committed == 0 || cl.Committed > 384 {
		t.Errorf("after %d x 64 B: class 2048 committed %d of %d slots, want 1..384", burst, cl.Committed, cl.Capacity)
	}
	if cl := after[1]; cl.Committed != 0 {
		t.Errorf("after %d x 64 B: class 9216 committed %d slots, want 0", burst, cl.Committed)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	for i, cl := range classes() {
		if cl.Free != cl.Capacity {
			t.Errorf("after Close: class %d free %d, want capacity %d", cl.SlotSize, cl.Free, cl.Capacity)
		}
		if cl.Committed != after[i].Committed {
			t.Errorf("after Close: class %d committed %d, want %d (committed memory is kept)", cl.SlotSize, cl.Committed, after[i].Committed)
		}
	}
}
