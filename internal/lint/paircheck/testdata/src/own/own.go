// Package own seeds uses after release against a stand-in of the
// INSANE client API: the analyzer recognizes consuming calls through
// the //insane:release and //insane:transfer resource registry, so the
// fixture annotates its stand-in methods the same way the real module
// does and needs nothing beyond this package.
package own

import "errors"

// Buffer mimics insane.Buffer: a zero-copy send buffer.
type Buffer struct {
	Payload []byte
}

// Message mimics insane.Message: a zero-copy delivery.
type Message struct {
	Payload []byte
}

// ErrBackpressure mimics the sanctioned retry error.
var ErrBackpressure = errors.New("backpressure")

// Source mimics insane.Source.
type Source struct{}

//insane:acquire resource=slot on=nilerr
func (s *Source) GetBuffer(n int) (*Buffer, error) {
	return &Buffer{Payload: make([]byte, n)}, nil
}

//insane:transfer resource=slot on=nilerr
func (s *Source) Emit(b *Buffer, n int) (uint32, error) { _ = b; return 0, nil }

//insane:release resource=slot
func (s *Source) Abort(b *Buffer) { _ = b }

// Sink mimics insane.Sink.
type Sink struct{}

//insane:acquire resource=slot on=nilerr
func (k *Sink) Consume() (*Message, error) { return &Message{}, nil }

//insane:release resource=slot
func (k *Sink) Release(m *Message) { _ = m }

// Seeded violation 1: write into the payload after Emit.
func useAfterEmit(s *Source) {
	b, _ := s.GetBuffer(8)
	s.Emit(b, 8)
	b.Payload[0] = 1 // want `b used after Emit`
}

// Seeded violation 2: read through the variable after Emit.
func readAfterEmit(s *Source) byte {
	b, _ := s.GetBuffer(8)
	_, _ = s.Emit(b, 8)
	return b.Payload[0] // want `b used after Emit`
}

// Seeded violation 3: emitting a buffer that was already aborted.
func emitAfterAbort(s *Source) {
	b, _ := s.GetBuffer(8)
	s.Abort(b)
	s.Emit(b, 8) // want `b used after Abort`
}

// Seeded violation 4: reading a released message.
func useAfterRelease(k *Sink) byte {
	m, _ := k.Consume()
	k.Release(m)
	return m.Payload[0] // want `m used after Release`
}

// Seeded violation 5: double release corrupts slot reference counts.
func doubleRelease(k *Sink) {
	m, _ := k.Consume()
	k.Release(m)
	k.Release(m) // want `double release`
}

// The backpressure protocol: on error the caller keeps ownership, so
// uses guarded by the emit error are legal.
func retryOnBackpressure(s *Source) {
	b, _ := s.GetBuffer(8)
	_, err := s.Emit(b, 8)
	if errors.Is(err, ErrBackpressure) {
		s.Emit(b, 8) // ok: guarded by the killing call's error
	}
}

// Retry loops re-emit the same buffer; the analysis is forward-only
// within one iteration, mirroring how ownership really flows. Any other
// error leaves the buffer with the caller, who must abort it.
func retryLoop(s *Source) error {
	b, _ := s.GetBuffer(8)
	for {
		_, err := s.Emit(b, 8)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrBackpressure) {
			s.Abort(b)
			return err
		}
	}
}

// Reassignment re-establishes ownership.
func reuseVariable(s *Source) {
	b, _ := s.GetBuffer(8)
	s.Emit(b, 8)
	b, _ = s.GetBuffer(16)
	b.Payload[0] = 2 // ok: fresh buffer under the same name
	s.Emit(b, 16)
}

// wrapper mimics the client library's owner-field idiom.
type wrapper struct{ inner *Buffer }

// Clearing the owner field after a successful transfer is the idiom the
// insane package itself uses (b.inner = nil); assignment is not a use.
func clearField(s *Source, w *wrapper) {
	_, err := s.Emit(w.inner, 4)
	if err == nil {
		w.inner = nil // ok: reassignment
	}
}

// A field that shares a dead holder's name is another object.
type named struct{ b []byte }

func fieldNamedLikeHolder(s *Source, b *Buffer, n *named) int {
	s.Emit(b, 8)
	return len(n.b) // ok: n.b is not b
}

// Transfers inside one branch do not poison the sibling or the code
// after the conditional.
func branchLocal(s *Source, cond bool) {
	b, _ := s.GetBuffer(8)
	if cond {
		s.Emit(b, 8)
	} else {
		s.Abort(b)
	}
}

// The suppression path: an explicit, reasoned directive waives the
// finding (no `want` here — an unsuppressed diagnostic would fail the
// test as unexpected).
func suppressed(s *Source) {
	b, _ := s.GetBuffer(8)
	s.Emit(b, 8)
	//lint:ignore insanevet/paircheck fixture proving the suppression path
	b.Payload[0] = 1
}

// Packet mimics datapath.Packet: the runtime-internal descriptor that
// rides through the schedulers and free lists.
type Packet struct {
	Len int
	Ctx any
}

// pktEnv mimics the core package's pooled packet envelope.
type pktEnv struct {
	pkt Packet
}

// cache mimes the mempool per-poller free list for packet envelopes.
type cache struct{}

//insane:acquire resource=pooled-obj
func (c *cache) Get() *pktEnv { return &pktEnv{} }

//insane:release resource=pooled-obj
func (c *cache) Put(e *pktEnv) { _ = e }

//insane:release resource=pooled-obj
func (c *cache) Recycle(p *Packet) { _ = p }

// Seeded violation 6: touching a pooled envelope after it returned to
// the free list — the next Get may already have handed it out.
func useAfterPut(c *cache) int {
	e := c.Get()
	c.Put(e)
	return e.pkt.Len // want `e used after Put`
}

// Seeded violation 7: double recycle hands the same envelope to two
// owners.
func doublePut(c *cache) {
	e := c.Get()
	c.Put(e)
	c.Put(e) // want `double release`
}

// Seeded violation 8: the Recycle spelling kills a *Packet the same way.
func useAfterRecycle(c *cache, p *Packet) {
	c.Recycle(p)
	p.Ctx = nil // want `p used after Recycle`
}

// Getting a fresh envelope under the same name re-establishes ownership.
func reuseEnvVariable(c *cache) {
	e := c.Get()
	c.Put(e)
	e = c.Get()
	e.pkt.Len = 1 // ok: fresh envelope under the same name
	c.Put(e)
}

// A Put on a pool with no //insane: annotation is outside the resource
// registry and must not start tracking, whatever it is named.
type otherPool struct{}

func (p *otherPool) Put(v any) { _ = v }

func unrelatedPut(p *otherPool, b *Buffer) {
	p.Put(b)
	_ = b.Payload // ok: Put of a non-packet type is not tracked
}

// ---- wrappers that hold the runtime's struct by value ----------------
//
// The client library embeds the core structs in its pooled wrappers and
// hands the core calls their address (one wrapper per API object), so the
// consuming call sees &m.d, not a pointer field.

// delivery and sendBuf mimic core.Delivery and core.Buffer.
type delivery struct{ Payload []byte }
type sendBuf struct{ Payload []byte }

// handle mimics the core sink and source handles.
type handle struct{}

//insane:release resource=slot
func (h *handle) release(d *delivery) { *d = delivery{} }

//insane:transfer resource=slot on=nilerr
func (h *handle) emit(b *sendBuf, n int) error { *b = sendBuf{}; return nil }

// Msg and Buf mimic insane.Message and insane.Buffer.
type Msg struct {
	Payload []byte
	d       delivery
}
type Buf struct {
	Payload []byte
	inner   sendBuf
}

// Port mimics insane.Sink and insane.Source over one handle.
type Port struct{ h *handle }

// The wrapper's own Release: recycling the wrapper after the inner
// struct was handed back is not a use of the inner struct.
//
//insane:release resource=slot
func (p *Port) Release(m *Msg) {
	p.h.release(&m.d)
	m.Payload = nil // ok: the wrapper outlives the delivery it held
}

//insane:transfer resource=slot on=nilerr
func (p *Port) Emit(b *Buf, n int) error {
	err := p.h.emit(&b.inner, n)
	if err != nil {
		_ = b.inner.Payload // ok: on error the caller keeps the buffer
		return err
	}
	b.Payload = nil // ok
	return nil
}

// Seeded violation 9: the embedded struct is dead once its address went
// to the consuming call.
func (p *Port) releaseThenRead(m *Msg) byte {
	p.h.release(&m.d)
	return m.d.Payload[0] // want `m.d used after release`
}

// Seeded violation 10: the same for a send buffer after the transfer.
func (p *Port) emitThenWrite(b *Buf) {
	p.h.emit(&b.inner, 1)
	b.inner.Payload[0] = 1 // want `b.inner used after emit`
}

// Seeded violation 11: a *Msg after Release, read through the embedded
// struct or the public field alike.
func msgAfterRelease(p *Port, m *Msg) int {
	p.Release(m)
	return len(m.d.Payload) + len(m.Payload) // want `m used after Release`
}

// Seeded violation 12: a *Buf after a successful Emit.
func bufAfterEmit(p *Port, b *Buf) {
	if err := p.Emit(b, 1); err != nil {
		return
	}
	b.inner.Payload[0] = 1 // want `b used after Emit`
}
