// Tenant timing-isolation mode: proves the DESIGN.md §12 guarantee that
// a best-effort tenant flooding a node cannot move a TSN tenant's p99.9
// consume latency past its gate-cycle budget. The scenario runs twice —
// quiet, then under flood — and both runs must hold the same budget, so
// the committed BENCH_isolation.json is the regressable form of the
// 802.1Qbv claim.

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

// tsnPace staggers the paced emits against the 250µs default gate cycle
// (it divides neither the 50µs class-7 window nor the 200µs best-effort
// window), so the measured sample covers every gate phase instead of
// locking onto one.
const tsnPace = 37 * time.Microsecond

// floodGen owns the noisy tenant's emit and drain goroutines: a
// best-effort load generator that pushes 1KB messages as fast as the
// tenant's admission control (slot budget, TX tokens, ring
// backpressure) allows, with a paired drainer recycling the quotas.
type floodGen struct {
	stop   chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// halt signals both goroutines and joins them. Only measureIsolation
// calls it (success path plus a deferred cleanup), so the already-closed
// check does not race.
func (g *floodGen) halt() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
		g.cancel()
	}
	g.wg.Wait()
}

// startFlood launches the generator pair on an already-bound noisy
// tenant source/sink.
func startFlood(src *insane.Source, sink *insane.Sink) *floodGen {
	// The drain context doubles as the drainer's stop signal: halt
	// cancels it, ConsumeContext returns, the goroutine exits.
	ctx, cancel := context.WithCancel(context.Background())
	g := &floodGen{stop: make(chan struct{}), cancel: cancel}
	g.wg.Add(2)
	//insane:goroutine owner=floodGen stop=halt
	go func() { // flood emitter
		defer g.wg.Done()
		var buf *insane.Buffer
		for {
			select {
			case <-g.stop:
				if buf != nil {
					src.Abort(buf)
				}
				return
			default:
			}
			var err error
			if buf == nil {
				if buf, err = src.GetBuffer(1024); err != nil {
					// Slot budget exhausted until the drainer catches
					// up — exactly the backpressure being tested.
					runtime.Gosched()
					continue
				}
			}
			if _, err = src.Emit(buf, 1024); err != nil {
				// Ring backpressure and TX-token rejections both mean
				// "retry the same buffer"; anything else is fatal to
				// the flood but must not wedge the benchmark.
				if errors.Is(err, insane.ErrBackpressure) || errors.Is(err, insane.ErrTenantQuota) {
					runtime.Gosched()
					continue
				}
				src.Abort(buf)
				return
			}
			buf = nil
			// Yield after every emit: the scenario measures the
			// middleware's tenant isolation, not Go's preemption
			// quantum. Without this, on a single-CPU host the hot
			// emit loop holds the only P for ~10ms stretches and the
			// poller misses gate windows for reasons no middleware
			// scheduler can fix (deployments pin poller threads).
			runtime.Gosched()
		}
	}()
	//insane:goroutine owner=floodGen stop=halt
	go func() { // flood drainer: keeps slots and TX tokens recycling
		defer g.wg.Done()
		for {
			select {
			case <-g.stop:
				return
			default:
			}
			m, err := sink.ConsumeContext(ctx)
			if err != nil {
				return
			}
			sink.Release(m)
		}
	}()
	return g
}

// runIsolation measures the quiet baseline and the flooded run, writes
// the JSON baseline, and fails if either run's p99.9 exceeds the budget.
func runIsolation(path string, msgs int, budget time.Duration) error {
	results := make([]bench.IsolationResult, 0, 2)
	for _, scenario := range []struct {
		name  string
		flood bool
	}{
		{name: "isolation/quiet", flood: false},
		{name: "isolation/flood", flood: true},
	} {
		res, err := measureIsolation(scenario.name, msgs, scenario.flood, budget)
		if err != nil {
			return err
		}
		fmt.Println(res)
		results = append(results, res)
	}
	if path != "" {
		if err := bench.WriteIsolationJSON(path, results); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	for _, r := range results {
		if !r.Pass {
			return fmt.Errorf("%s: TSN p99.9 %.0f ns exceeds budget %.0f ns",
				r.Name, r.TSNP999Ns, r.BudgetNs)
		}
	}
	return nil
}

// measureIsolation runs one scenario on a fresh single-node cluster: a
// TSN tenant paces class-7 time-sensitive messages through the default
// 802.1Qbv schedule while (optionally) a best-effort tenant floods the
// same node as fast as admission control lets it. The TSN tail comes
// from the per-tenant consume-latency histogram in Node.Metrics(): wall
// clock from Emit admission to Consume return, every message of the
// time-sensitive stream — gate wait, poller and consumer wake included.
func measureIsolation(name string, msgs int, flood bool, budget time.Duration) (bench.IsolationResult, error) {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "bench"}},
		Tenants: []insane.TenantSpec{
			{ID: "tsn", Weight: 4},
			{ID: "noisy", Weight: 1, MemSlots: 512, TxTokens: 256},
		},
	})
	if err != nil {
		return bench.IsolationResult{}, err
	}
	defer cluster.Close()
	node := cluster.Node("bench")

	tsnSess, err := node.InitSession(insane.WithTenant("tsn"))
	if err != nil {
		return bench.IsolationResult{}, err
	}
	defer tsnSess.Close()
	tsnStream, err := tsnSess.CreateStreamOpts(
		insane.WithTiming(insane.TimeSensitive), insane.WithClass(7))
	if err != nil {
		return bench.IsolationResult{}, err
	}
	tsnSink, err := tsnStream.CreateSink(40, nil)
	if err != nil {
		return bench.IsolationResult{}, err
	}
	tsnSrc, err := tsnStream.CreateSource(40)
	if err != nil {
		return bench.IsolationResult{}, err
	}

	var gen *floodGen
	if flood {
		noisySess, err := node.InitSession(insane.WithTenant("noisy"))
		if err != nil {
			return bench.IsolationResult{}, err
		}
		defer noisySess.Close()
		noisyStream, err := noisySess.CreateStreamOpts()
		if err != nil {
			return bench.IsolationResult{}, err
		}
		noisySink, err := noisyStream.CreateSink(41, nil)
		if err != nil {
			return bench.IsolationResult{}, err
		}
		noisySrc, err := noisyStream.CreateSource(41)
		if err != nil {
			return bench.IsolationResult{}, err
		}
		gen = startFlood(noisySrc, noisySink)
		defer gen.halt()
	}

	// One deadline context reused across all paced round-trips; the
	// deadline is a liveness guard for the whole run, not a per-message
	// budget.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	sent := 0
	start := time.Now()
	for i := 0; i < msgs; i++ {
		buf, err := tsnSrc.GetBuffer(128)
		if err != nil {
			return bench.IsolationResult{}, fmt.Errorf("tsn GetBuffer: %w", err)
		}
		if _, err := tsnSrc.Emit(buf, 128); err != nil {
			tsnSrc.Abort(buf)
			return bench.IsolationResult{}, fmt.Errorf("tsn Emit: %w", err)
		}
		m, err := tsnSink.ConsumeContext(ctx)
		if err != nil {
			return bench.IsolationResult{}, fmt.Errorf("tsn Consume: %w", err)
		}
		tsnSink.Release(m)
		sent++
		time.Sleep(tsnPace)
	}
	elapsed := time.Since(start)
	if gen != nil {
		gen.halt()
	}

	res := bench.IsolationResult{
		Name:        name,
		TSNMessages: sent,
		BudgetNs:    float64(budget.Nanoseconds()),
	}
	for _, tm := range node.Metrics().Tenants {
		switch tm.Tenant {
		case "tsn":
			res.TSNP50Ns = float64(tm.ConsumeLatency.P50.Nanoseconds())
			res.TSNP99Ns = float64(tm.ConsumeLatency.P99.Nanoseconds())
			res.TSNP999Ns = float64(tm.ConsumeLatency.P999.Nanoseconds())
		case "noisy":
			res.FloodMessages = int(tm.Consumes)
			if elapsed > 0 {
				res.FloodPktPerSec = float64(tm.Consumes) / elapsed.Seconds()
			}
		}
	}
	if res.TSNP999Ns == 0 {
		return res, errors.New(name + ": no TSN latency samples recorded")
	}
	res.Pass = res.TSNP999Ns <= res.BudgetNs
	return res, nil
}
