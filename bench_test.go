// Benchmarks regenerating the paper's evaluation (one per table/figure;
// see DESIGN.md's per-experiment index) plus real hot-path
// microbenchmarks for the middleware's ns-scale-overhead claim.
//
// The figure/table benchmarks report their headline numbers as custom
// metrics; full tables come from `go run ./cmd/insane-bench`.
package repro

import (
	"context"
	"strconv"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/internal/bench"
	"github.com/insane-mw/insane/internal/experiments"
	"github.com/insane-mw/insane/internal/experiments/apps"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/sim"
)

// benchCfg keeps benchmark iterations modest; the numbers are virtual
// time, so more rounds only tighten nothing.
var benchCfg = experiments.RunConfig{Rounds: 100, Jobs: 3000}

// runExperiment executes one experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) experiments.Report {
	b.Helper()
	var rep experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// metricFromCell parses a table cell into a float for ReportMetric.
func metricFromCell(b *testing.B, rep experiments.Report, row, col int) float64 {
	b.Helper()
	cells := rep.Tables[0].Rows
	v, err := strconv.ParseFloat(cells[row][col], 64)
	if err != nil {
		b.Fatalf("cell[%d][%d] = %q: %v", row, col, cells[row][col], err)
	}
	return v
}

func BenchmarkTable3LoC(b *testing.B) {
	rep := runExperiment(b, "table3")
	b.ReportMetric(metricFromCell(b, rep, 0, 1), "insane-loc")
	b.ReportMetric(metricFromCell(b, rep, 1, 1), "udp-loc")
	b.ReportMetric(metricFromCell(b, rep, 2, 1), "dpdk-loc")
}

func BenchmarkFig5aLatencyLocal(b *testing.B) {
	rep := runExperiment(b, "fig5a")
	b.ReportMetric(metricFromCell(b, rep, 0, 1), "rawdpdk-rtt-us")
	b.ReportMetric(metricFromCell(b, rep, 1, 1), "insanefast-rtt-us")
	b.ReportMetric(metricFromCell(b, rep, 3, 1), "kernel-rtt-us")
}

func BenchmarkFig5bLatencyCloud(b *testing.B) {
	rep := runExperiment(b, "fig5b")
	b.ReportMetric(metricFromCell(b, rep, 0, 1), "rawdpdk-rtt-us")
	b.ReportMetric(metricFromCell(b, rep, 1, 1), "insanefast-rtt-us")
}

func BenchmarkFig6Breakdown(b *testing.B) {
	rep := runExperiment(b, "fig6")
	b.ReportMetric(metricFromCell(b, rep, 0, 5), "local-oneway-us")
	b.ReportMetric(metricFromCell(b, rep, 1, 5), "cloud-oneway-us")
}

func BenchmarkFig7aSystemsLocal(b *testing.B) {
	rep := runExperiment(b, "fig7a")
	b.ReportMetric(metricFromCell(b, rep, 6, 1), "rawdpdk-rtt-us")
	b.ReportMetric(metricFromCell(b, rep, 5, 1), "insanefast-rtt-us")
	b.ReportMetric(metricFromCell(b, rep, 2, 1), "catnap-rtt-us")
	b.ReportMetric(metricFromCell(b, rep, 4, 1), "catnip-rtt-us")
}

func BenchmarkFig7bSystemsCloud(b *testing.B) {
	rep := runExperiment(b, "fig7b")
	b.ReportMetric(metricFromCell(b, rep, 6, 1), "rawdpdk-rtt-us")
	b.ReportMetric(metricFromCell(b, rep, 5, 1), "insanefast-rtt-us")
}

func BenchmarkFig8aThroughput(b *testing.B) {
	rep := runExperiment(b, "fig8a")
	// Row order matches fig8Systems; the last column is 8KB.
	last := len(rep.Tables[0].Header) - 1
	b.ReportMetric(metricFromCell(b, rep, 3, last), "rawdpdk-8k-gbps")
	b.ReportMetric(metricFromCell(b, rep, 5, last), "insanefast-8k-gbps")
	b.ReportMetric(metricFromCell(b, rep, 1, last), "catnip-8k-gbps")
}

func BenchmarkFig8bMultiSink(b *testing.B) {
	rep := runExperiment(b, "fig8b")
	b.ReportMetric(metricFromCell(b, rep, 0, 1), "1sink-gbps")
	b.ReportMetric(metricFromCell(b, rep, 3, 1), "6sink-gbps")
	b.ReportMetric(metricFromCell(b, rep, 4, 1), "8sink-gbps")
}

func BenchmarkFig9aMomLatency(b *testing.B) {
	rep := runExperiment(b, "fig9a")
	b.ReportMetric(metricFromCell(b, rep, 0, 1), "lunarfast-rtt-us")
	b.ReportMetric(metricFromCell(b, rep, 2, 1), "cyclone-rtt-us")
}

func BenchmarkFig9bMomThroughput(b *testing.B) {
	rep := runExperiment(b, "fig9b")
	b.ReportMetric(metricFromCell(b, rep, 0, 3), "lunarfast-1k-gbps")
	b.ReportMetric(metricFromCell(b, rep, 4, 3), "cyclone-1k-gbps")
}

func BenchmarkFig11aStreamingFPS(b *testing.B) {
	rep := runExperiment(b, "fig11a")
	b.ReportMetric(metricFromCell(b, rep, 0, 1), "hd-fast-fps")
	b.ReportMetric(metricFromCell(b, rep, 3, 1), "4k-fast-fps")
}

func BenchmarkFig11bStreamingLatency(b *testing.B) {
	rep := runExperiment(b, "fig11b")
	b.ReportMetric(metricFromCell(b, rep, 3, 1), "4k-fast-ms")
	b.ReportMetric(metricFromCell(b, rep, 4, 1), "8k-fast-ms")
}

func BenchmarkAblationIPCHop(b *testing.B) {
	rep := runExperiment(b, "ablation-ipc")
	b.ReportMetric(metricFromCell(b, rep, 2, 3), "ipc-cost-us")
}

func BenchmarkAblationBatching(b *testing.B) {
	rep := runExperiment(b, "ablation-batching")
	b.ReportMetric(metricFromCell(b, rep, 2, 1), "on-8k-gbps")
	b.ReportMetric(metricFromCell(b, rep, 2, 2), "off-8k-gbps")
}

func BenchmarkAblationThreadMapping(b *testing.B) {
	runExperiment(b, "ablation-threads")
}

func BenchmarkAblationTSN(b *testing.B) {
	runExperiment(b, "ablation-tsn")
}

// BenchmarkEmitConsumeLocal measures the real wall-clock hot path of the
// middleware — borrow, emit, shared-memory delivery, consume, release —
// the operations whose overhead the paper claims is ns-scale.
func BenchmarkEmitConsumeLocal(b *testing.B) {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "a", DPDK: true}, {Name: "b", DPDK: true}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	sess, err := cluster.Node("a").InitSession()
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.CreateStreamOpts()
	if err != nil {
		b.Fatal(err)
	}
	sink, err := st.CreateSink(1, nil)
	if err != nil {
		b.Fatal(err)
	}
	src, err := st.CreateSource(1)
	if err != nil {
		b.Fatal(err)
	}
	// One deadline context reused for every iteration: a fresh context
	// per message would allocate inside the timed loop.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := src.GetBuffer(64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := src.Emit(buf, 64); err != nil {
			b.Fatal(err)
		}
		msg, err := sink.ConsumeContext(ctx)
		if err != nil {
			b.Fatal(err)
		}
		sink.Release(msg)
	}
}

// openFanout opens, on one node, a source fanned out to fanout sinks of
// the same stream: the co-located shape of the repository benchmark's
// local workloads, small enough to iterate on in seconds.
func openFanout(tb testing.TB, node *insane.Node, fanout int, opts ...insane.Option) (*insane.Source, []*insane.Sink) {
	tb.Helper()
	sess, err := node.InitSession()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sess.Close() })
	st, err := sess.CreateStreamOpts(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	sinks := make([]*insane.Sink, fanout)
	for i := range sinks {
		if sinks[i], err = st.CreateSink(1, nil); err != nil {
			tb.Fatal(err)
		}
	}
	src, err := st.CreateSource(1)
	if err != nil {
		tb.Fatal(err)
	}
	return src, sinks
}

// fanoutRound is one message of size payload bytes through the rig:
// GetBuffer → Emit → one ConsumeContext per sink → one Release per sink.
// held is scratch, one entry per sink.
func fanoutRound(tb testing.TB, ctx context.Context, src *insane.Source, sinks []*insane.Sink, held []*insane.Message, size int) {
	buf, err := src.GetBuffer(size)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := src.Emit(buf, size); err != nil {
		tb.Fatal(err)
	}
	for i, sink := range sinks {
		if held[i], err = sink.ConsumeContext(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	for i, sink := range sinks {
		sink.Release(held[i])
	}
}

// localRig is openFanout on a one-node cluster of its own.
func localRig(b *testing.B, fanout int, opts ...insane.Option) (*insane.Source, []*insane.Sink) {
	b.Helper()
	cluster, err := insane.NewCluster(insane.ClusterOptions{Nodes: []insane.NodeSpec{{Name: "a"}}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Close)
	return openFanout(b, cluster.Node("a"), fanout, opts...)
}

// BenchmarkRTCFanout4 is the repository benchmark's local-rtc-fanout
// message in a loop: GetBuffer → Emit, run to completion into four sink
// rings → four ConsumeContext calls that find their message already there
// → four Releases. Nothing waits and no poller runs, so ns/op is the
// client-library half of the path and nothing else.
func BenchmarkRTCFanout4(b *testing.B) {
	src, sinks := localRig(b, 4, insane.WithRunToCompletion(true))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	held := make([]*insane.Message, len(sinks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fanoutRound(b, ctx, src, sinks, held, 64)
	}
}

// BenchmarkConsumeReady times the pop and release of a message that is
// already queued — ConsumeContext's fast path, with a deadline context it
// must not look at. The sink ring is refilled off the clock, a batch at a
// time.
func BenchmarkConsumeReady(b *testing.B) {
	src, sinks := localRig(b, 1, insane.WithRunToCompletion(true))
	sink := sinks[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(batch, b.N-done)
		b.StopTimer()
		for i := 0; i < n; i++ {
			buf, err := src.GetBuffer(64)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := src.Emit(buf, 64); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for i := 0; i < n; i++ {
			msg, err := sink.ConsumeContext(ctx)
			if err != nil {
				b.Fatal(err)
			}
			sink.Release(msg)
		}
		done += n
	}
}

// BenchmarkRemotePingPong measures the real wall-clock round trip of the
// full middleware path over the virtual fabric (not the modeled virtual
// time — this is what the Go implementation actually costs per message).
func BenchmarkRemotePingPong(b *testing.B) {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "a", DPDK: true}, {Name: "b", DPDK: true}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	b.ReportAllocs()
	b.ResetTimer()
	rtts := apps.InsanePingPong(cluster, 64, b.N, true)
	b.StopTimer()
	if len(rtts) != b.N {
		b.Fatalf("completed %d of %d rounds", len(rtts), b.N)
	}
	b.ReportMetric(float64(bench.Summarize(rtts).Median.Nanoseconds())/1000, "virtual-rtt-us")
}

// BenchmarkSimPipeline measures the discrete-event engine itself.
func BenchmarkSimPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.SystemGoodput(model.SysInsaneFast, 1024, 1000, model.Local)
	}
}
