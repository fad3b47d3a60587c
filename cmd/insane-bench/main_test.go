package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/bench"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "table1", "-rounds", "10", "-jobs", "100"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommaSeparated(t *testing.T) {
	if err := run([]string{"-experiment", "table1, table4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-experiment", "fig99"})
	if err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunHotpath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hotpath.json")
	if err := run([]string{"-hotpath", path, "-hotpath-iters", "200"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"emit-consume-local/64B", "ns_per_op", "allocs_per_op", "bytes_per_op"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("baseline file missing %q", want)
		}
	}
}

func TestRunHotpathBadIters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hotpath.json")
	if err := run([]string{"-hotpath", path, "-hotpath-iters", "0"}); err == nil {
		t.Fatal("zero iterations accepted")
	}
}

// TestThroughputTwoProcs is the regression test of the -throughput hang:
// with a core per goroutine, flat-out producers used to overrun the
// 1024-deep sink rings and the consumers then waited five minutes for
// messages that had been dropped. 20 000 messages per stream is far past
// the ring depth; the row must finish, with every message delivered or
// counted as dropped.
func TestThroughputTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const pollers, streams, packets = 2, 4, 20000
	type outcome struct {
		res bench.ThroughputResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := measureThroughput("throughput/64B-2p", pollers, streams, 64, packets)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if got := uint64(o.res.Packets) + o.res.Dropped; got != streams*packets {
			t.Errorf("%d delivered + %d dropped, want %d emitted", o.res.Packets, o.res.Dropped, streams*packets)
		}
		t.Log(o.res)
	case <-time.After(30 * time.Second):
		t.Fatal("the 2-poller throughput row did not finish within 30 s")
	}
}
