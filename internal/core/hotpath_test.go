package core

import (
	"context"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
)

// TestSteadyStateZeroAllocCore gates the runtime-internal publish path
// (Emit → drainTX → schedule → dispatch → deliverLocal → TryConsume →
// Release) at zero heap allocations per message, below the public-API
// wrappers the root-level TestSteadyStateZeroAlloc covers. AllocsPerRun
// counts process-wide mallocs, so the polling threads are inside the
// gate; the topology is kernel-only to keep the background quiet.
func TestSteadyStateZeroAllocCore(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate measures the plain build")
	}
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, err := w.a.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, err := conn.OpenStream(qos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := st.CreateSink(7)
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(7)
	if err != nil {
		t.Fatal(err)
	}

	// One guard for the whole run: a context per op would allocate.
	guard, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	op := func() {
		var b Buffer
		if err := src.GetBuffer(&b, 64); err != nil {
			t.Fatal(err)
		}
		copy(b.Payload, "steady-state")
		if _, err := src.Emit(&b, 64); err != nil {
			t.Fatal(err)
		}
		var d Delivery
		if err := sink.Consume(&d, guard.Done()); err != nil {
			t.Fatal(err)
		}
		sink.Release(&d)
	}

	// Warm pools, poller envelope caches and topology snapshots.
	for i := 0; i < 500; i++ {
		op()
	}

	// One retry damps runtime-internal background allocations (a GC
	// cycle starting mid-run); a repeatably nonzero reading still fails.
	samples, _ := latencySamples(w.a)
	var avg float64
	for attempt := 0; attempt < 2; attempt++ {
		avg = testing.AllocsPerRun(gateRuns, op)
		if avg == 0 {
			break
		}
	}
	if avg != 0 {
		t.Fatalf("core steady-state publish path allocates: %.2f allocs/op, want 0", avg)
	}
	sampledInsideGate(t, w.a, samples)
}

// gateRuns is the op count of one allocation measurement: more than two
// sampling periods, so each run times sampled messages — clock reads and
// histogram observations — as well as the 63 in 64 that skip both.
const gateRuns = 200

// sampledInsideGate checks that at least two sampled messages were
// consumed since before was taken.
func sampledInsideGate(t *testing.T, rt *Runtime, before [telemetry.NumHists]uint64) {
	t.Helper()
	after, _ := latencySamples(rt)
	if got := after[telemetry.HistStageRecv] - before[telemetry.HistStageRecv]; got < 2 {
		t.Errorf("the gate saw %d sampled messages, want >= 2", got)
	}
}
