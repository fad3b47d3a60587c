package insane_test

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

// TestNoGoroutineLeakOnClose proves the shutdown contract the
// goroutinecheck annotations promise: opening a two-node cluster with
// the telemetry endpoint, pushing traffic through a callback sink, and
// closing the cluster under traffic must return the process to its
// pre-open goroutine population. Stacks are compared by creation site, so
// the failure output names the exact `go` statement that leaked.
func TestNoGoroutineLeakOnClose(t *testing.T) {
	before := goroutineSites()

	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "edge-1", DPDK: true},
			{Name: "edge-2", DPDK: true},
		},
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()

	const channel = 7
	var got atomic.Int64
	rx, err := c.Node("edge-2").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	rxStream, err := rx.CreateStreamOpts()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rxStream.CreateSink(channel, func(m *insane.Message) {
		got.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	tx, err := c.Node("edge-1").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	txStream, err := tx.CreateStreamOpts()
	if err != nil {
		t.Fatal(err)
	}
	src, err := txStream.CreateSource(channel)
	if err != nil {
		t.Fatal(err)
	}
	waitSubs(t, c.Node("edge-1"), channel, 1)
	send(t, src, []byte("leakcheck"))
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("callback sink never received the message")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Touch the metrics endpoint so its serve goroutine demonstrably
	// ran, then drop the client's idle connections — their readLoop
	// goroutines are the client's, not the cluster's.
	resp, err := http.Get("http://" + c.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()

	// Close the cluster with frames in flight: a burst nobody waits for,
	// on a session nobody closes, so pollers are stopped with work queued
	// and doorbells ringing.
	for i := 0; i < 512; i++ {
		send(t, src, []byte("in flight at close"))
	}
	rx.Close()
	c.Close()
	closed = true

	requireNoLeak(t, before)
}

// requireNoLeak fails the test unless the goroutine population returns to
// before. The runtimes join their goroutines synchronously, but client-side
// HTTP teardown and goroutines a test just released are asynchronous: it
// polls briefly before judging.
func requireNoLeak(t *testing.T, before map[string]int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		leaked := diffSites(before, goroutineSites())
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked across close:\n%s\nfull dump:\n%s",
				strings.Join(leaked, "\n"), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutineSites counts live goroutines by the source location of the
// `go` statement that created them.
func goroutineSites() map[string]int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	sites := make(map[string]int)
	for _, g := range strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n") {
		site := "no created-by (root goroutine)"
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "created by ") {
				site = strings.TrimPrefix(line, "created by ")
				if i := strings.Index(site, " in goroutine"); i >= 0 {
					site = site[:i]
				}
				break
			}
		}
		sites[site]++
	}
	return sites
}

// diffSites lists the creation sites with more live goroutines in
// after than in before.
func diffSites(before, after map[string]int) []string {
	var out []string
	for site, n := range after {
		if extra := n - before[site]; extra > 0 {
			out = append(out, fmt.Sprintf("  %s: +%d", site, extra))
		}
	}
	sort.Strings(out)
	return out
}
