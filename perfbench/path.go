//go:build perfbench

package main

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/insane"
)

// epoch anchors the benchmark's monotonic clock; now() costs one
// time.Since, the cheapest monotonic read the standard library offers.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// maxRetries bounds how often a refused GetBuffer or Emit is retried
// before the operation counts as failed. The closed loops below never
// have more in flight than the rings and quotas hold, so a healthy run
// retries rarely and gives up never.
const maxRetries = 10000

// path is one source and the sinks that receive what it emits, with an
// oracle per sink. A path is driven by one goroutine.
type path struct {
	src   *insane.Source
	sinks []*insane.Sink
	orcs  []*oracle
	held  []*insane.Message
	size  int
	seed  uint64

	emitted uint64 // messages the runtime accepted
}

func newPath(name string, src *insane.Source, sinks []*insane.Sink, size int, seed uint64) *path {
	p := &path{src: src, sinks: sinks, size: size, seed: seed, held: make([]*insane.Message, len(sinks))}
	for range sinks {
		p.orcs = append(p.orcs, newOracle(name, seed, size))
	}
	return p
}

// transient reports a refusal the API documents as "back off and retry".
func transient(err error) bool {
	return errors.Is(err, insane.ErrBackpressure) || errors.Is(err, insane.ErrNoBuffers) ||
		errors.Is(err, insane.ErrTenantQuota)
}

func getBuffer(src *insane.Source, size int) (*insane.Buffer, error) {
	for try := 0; ; try++ {
		buf, err := src.GetBuffer(size)
		if err == nil {
			return buf, nil
		}
		if try == maxRetries || !transient(err) {
			return nil, err
		}
		runtime.Gosched()
	}
}

// emit hands buf to the runtime; on failure the buffer goes back to the
// pool and the error is returned.
func emit(src *insane.Source, buf *insane.Buffer, size int) error {
	for try := 0; ; try++ {
		_, err := src.Emit(buf, size)
		if err == nil {
			return nil
		}
		if try == maxRetries || !transient(err) {
			src.Abort(buf)
			return err
		}
		runtime.Gosched()
	}
}

// send emits the path's next message.
func (p *path) send() error {
	buf, err := getBuffer(p.src, p.size)
	if err != nil {
		return err
	}
	fill(buf.Payload, p.seed, p.emitted)
	if err := emit(p.src, buf, p.size); err != nil {
		return err
	}
	p.emitted++
	return nil
}

// sendN emits n messages back to back and returns how many were accepted.
func (p *path) sendN(n int) (int, error) {
	for i := 0; i < n; i++ {
		if err := p.send(); err != nil {
			return i, err
		}
	}
	return n, nil
}

// drainN consumes, checks and releases n messages from every sink.
func (p *path) drainN(ctx context.Context, n int) error {
	for j := 0; j < n; j++ {
		for i, k := range p.sinks {
			m, err := k.ConsumeContext(ctx)
			if err != nil {
				return err
			}
			p.orcs[i].check(m.Payload)
			k.Release(m)
		}
	}
	return nil
}

// ping emits one message and waits until every sink has consumed it. It
// returns the latency — Emit call to the last Consume return — and the
// time the operation's latency interval ended. With a span ring, every
// API call is recorded as a span of trace p.emitted.
func (p *path) ping(ctx context.Context, tr *spanRing) (lat, end int64, err error) {
	var t0, t1, t3, t5 int64
	seq := p.emitted
	if tr != nil {
		t0 = now()
	}
	buf, err := getBuffer(p.src, p.size)
	if err != nil {
		return 0, now(), err
	}
	if tr != nil {
		t1 = now()
	}
	fill(buf.Payload, p.seed, seq)
	t2 := now()
	if err = emit(p.src, buf, p.size); err != nil {
		return 0, now(), err
	}
	p.emitted++
	if tr != nil {
		t3 = now()
	}
	for i, k := range p.sinks {
		if p.held[i], err = k.ConsumeContext(ctx); err != nil {
			for j := 0; j < i; j++ {
				p.sinks[j].Release(p.held[j])
			}
			return 0, now(), err
		}
	}
	t4 := now()
	for i := range p.sinks {
		p.orcs[i].check(p.held[i].Payload)
	}
	if tr != nil {
		t5 = now()
	}
	for i, k := range p.sinks {
		k.Release(p.held[i])
		p.held[i] = nil
	}
	if tr != nil {
		t6 := now()
		tr.record(seq, spanOp, noParent, t0, t6)
		tr.record(seq, spanGetBuffer, spanOp, t0, t1)
		tr.record(seq, spanMsg, spanOp, t2, t4)
		tr.record(seq, spanEmit, spanMsg, t2, t3)
		tr.record(seq, spanConsumeWait, spanMsg, t3, t4)
		tr.record(seq, spanRelease, spanOp, t5, t6)
	}
	return t4 - t2, t4, nil
}

// finish closes the books of every oracle and returns violations and the
// first few descriptions.
func (p *path) finish() (failed uint64, notes []string) {
	for _, o := range p.orcs {
		failed += o.finish(p.emitted)
		notes = append(notes, o.notes...)
	}
	return failed, notes
}

// echo is the server side of a ping-pong: one goroutine that sends every
// message it consumes back on another channel. It is parked except while
// the client waits for its reply.
type echo struct {
	sink *insane.Sink
	src  *insane.Source
	ring *spanRing

	trace   atomic.Bool   // record spans (set between phases by the client)
	replied atomic.Uint64 // replies the runtime accepted
	failed  atomic.Uint64 // replies the runtime refused

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startEcho(sink *insane.Sink, src *insane.Source, ring *spanRing) *echo {
	ctx, cancel := context.WithCancel(context.Background())
	e := &echo{sink: sink, src: src, ring: ring, cancel: cancel}
	e.wg.Add(1)
	go e.serve(ctx)
	return e
}

// halt stops the goroutine and waits for it.
func (e *echo) halt() {
	e.cancel()
	e.wg.Wait()
}

func (e *echo) serve(ctx context.Context) {
	defer e.wg.Done()
	for {
		req, err := e.sink.ConsumeContext(ctx)
		if err != nil {
			return // halted
		}
		traced := e.trace.Load() && len(req.Payload) >= headerLen
		var t0, t1, t2 int64
		if traced {
			t0 = now()
		}
		size := len(req.Payload)
		resp, err := getBuffer(e.src, size)
		if err != nil {
			e.failed.Add(1)
			e.sink.Release(req)
			continue
		}
		if traced {
			t1 = now()
		}
		copy(resp.Payload, req.Payload)
		var seq uint64
		if traced {
			seq = binary.LittleEndian.Uint64(req.Payload)
		}
		if err := emit(e.src, resp, size); err != nil {
			e.failed.Add(1)
		} else {
			e.replied.Add(1)
		}
		if traced {
			t2 = now()
		}
		e.sink.Release(req)
		if traced {
			t3 := now()
			e.ring.record(seq, spanEchoGetBuffer, spanConsumeWait, t0, t1)
			e.ring.record(seq, spanEchoEmit, spanConsumeWait, t1, t2)
			e.ring.record(seq, spanEchoRelease, spanConsumeWait, t2, t3)
		}
	}
}
