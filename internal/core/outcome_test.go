package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/qos"
)

// TestOutcomeWindow: a source keeps the outcomes of its last outcomeWindow
// messages in 16 KB. An outcome and its error stay readable while later
// messages are recorded into the rest of the window; the message
// outcomeWindow later evicts it, error and all; and a fan-out count too
// wide for its field reads as the field's maximum, 32767.
func TestOutcomeWindow(t *testing.T) {
	if size := unsafe.Sizeof(outcomeEntry{}) * outcomeWindow; size != 16<<10 {
		t.Errorf("outcome window is %d bytes, want 16 KB", size)
	}
	s := &SourceHandle{outcomes: make([]outcomeEntry, outcomeWindow)}
	if _, ok := s.Outcome(0); ok {
		t.Error("fresh source reports an outcome for seq 0")
	}
	errA, errB := errors.New("peer a unreachable"), errors.New("peer b unreachable")
	const seq = 5
	s.recordOutcome(Outcome{Seq: seq, LocalSinks: 2, RemotePeers: 1, Err: errA})
	for n := seq + 1; n < seq+outcomeWindow; n++ {
		s.recordOutcome(Outcome{Seq: uint32(n), LocalSinks: 1})
	}
	if o, ok := s.Outcome(seq); !ok || o != (Outcome{Seq: seq, LocalSinks: 2, RemotePeers: 1, Err: errA}) {
		t.Errorf("outcome %d = %+v (recorded %v), want 2 sinks, 1 peer and its error", seq, o, ok)
	}
	if _, ok := s.Outcome(seq - 2); ok {
		t.Errorf("outcome %d reported, though seq %d took its entry", seq-2, seq-2+outcomeWindow)
	}

	// The next occupant of the entry evicts the outcome and its error.
	s.recordOutcome(Outcome{Seq: seq + outcomeWindow, LocalSinks: 3})
	if o, ok := s.Outcome(seq); ok {
		t.Errorf("evicted outcome %d still reported: %+v", seq, o)
	}
	if o, ok := s.Outcome(seq + outcomeWindow); !ok || o != (Outcome{Seq: seq + outcomeWindow, LocalSinks: 3}) {
		t.Errorf("outcome %d = %+v (recorded %v), want 3 sinks and no error", seq+outcomeWindow, o, ok)
	}
	s.recordOutcome(Outcome{Seq: seq + 2*outcomeWindow, Err: errB})
	if o, ok := s.Outcome(seq + 2*outcomeWindow); !ok || o.Err != errB {
		t.Errorf("outcome %d = %+v (recorded %v), want the second error", seq+2*outcomeWindow, o, ok)
	}
	// Caught mid-eviction — the next occupant's error stored, its word not
	// yet — a failed outcome reads as gone, never with that error.
	s.outcomes[seq].recordErr(seq+3*outcomeWindow, errA)
	if o, ok := s.Outcome(seq + 2*outcomeWindow); ok {
		t.Errorf("outcome %d mid-eviction = %+v, want none", seq+2*outcomeWindow, o)
	}

	// Counts saturate at 32767.
	s.recordOutcome(Outcome{Seq: 7, LocalSinks: 1 << 20, RemotePeers: 32768})
	if o, _ := s.Outcome(7); o.LocalSinks != 32767 || o.RemotePeers != 32767 {
		t.Errorf("saturated counts read %d and %d, want 32767", o.LocalSinks, o.RemotePeers)
	}
	s.recordOutcome(Outcome{Seq: 8, LocalSinks: 32767, RemotePeers: 32766})
	if o, _ := s.Outcome(8); o.LocalSinks != 32767 || o.RemotePeers != 32766 {
		t.Errorf("counts read %d and %d, want 32767 and 32766", o.LocalSinks, o.RemotePeers)
	}
}

// TestOutcomeReadersRaceRecorders: readers call Outcome on recent and
// evicted seqs while a poller's dispatch records a queued source's
// outcomes and emitRTC records a run-to-completion source's. A read either
// misses or returns the outcome of the seq asked for, whole. Run it under
// -race.
func TestOutcomeReadersRaceRecorders(t *testing.T) {
	const perSource = 3000
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	type flow struct {
		src    *SourceHandle
		sinks  int
		latest atomic.Uint32
	}
	var flows []*flow
	var sinks []*SinkHandle
	for i, tc := range []struct {
		opts  qos.Options
		sinks int
	}{{sinks: 2}, {opts: rtcOpts, sinks: 1}} {
		st, err := conn.OpenStream(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < tc.sinks; k++ {
			sink, err := st.CreateSink(uint32(60 + i))
			if err != nil {
				t.Fatal(err)
			}
			sinks = append(sinks, sink)
		}
		src, err := st.CreateSource(uint32(60 + i))
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, &flow{src: src, sinks: tc.sinks})
	}

	stop := make(chan struct{})
	var consumers, readers, emitters sync.WaitGroup
	for _, k := range sinks {
		consumers.Add(1)
		go func(k *SinkHandle) {
			defer consumers.Done()
			var d Delivery
			for k.Consume(&d, stop) == nil {
				k.Release(&d)
			}
		}(k)
	}
	for _, f := range flows {
		readers.Add(1)
		go func(f *flow) {
			defer readers.Done()
			for n := uint32(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Around the newest seq: recorded, not yet recorded, and
				// a window back, evicted or about to be.
				seq := f.latest.Load() - n%(outcomeWindow+64)
				if o, ok := f.src.Outcome(seq); ok && (o.Seq != seq || o.LocalSinks != f.sinks || o.RemotePeers != 0 || o.Err != nil) {
					t.Errorf("outcome of seq %d = %+v, want %d sinks and nothing else", seq, o, f.sinks)
					return
				}
				runtime.Gosched()
			}
		}(f)
		emitters.Add(1)
		go func(f *flow) {
			defer emitters.Done()
			for sent := 0; sent < perSource; {
				var b Buffer
				if err := f.src.GetBuffer(&b, 8); err != nil {
					runtime.Gosched()
					continue
				}
				seq, err := f.src.Emit(&b, 8)
				if err != nil {
					f.src.Abort(&b)
					runtime.Gosched()
					continue
				}
				f.latest.Store(seq)
				sent++
			}
		}(f)
	}
	emitters.Wait()
	for _, f := range flows {
		last := f.latest.Load()
		if !eventually(func() bool { _, ok := f.src.Outcome(last); return ok }) {
			t.Errorf("outcome of the last seq %d never recorded", last)
		}
	}
	// Let the readers see the settled window, then stop everything.
	time.Sleep(5 * time.Millisecond)
	close(stop)
	readers.Wait()
	consumers.Wait()
}
