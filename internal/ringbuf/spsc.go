// Package ringbuf implements the bounded lock-free rings that carry tokens
// between the INSANE client library and the runtime, mirroring the
// shared-memory queues of the paper's prototype (§5.3: "state-of-the-art
// lock-free queues" in the style of the DPDK ring library and BBQ).
//
// Two variants are provided:
//
//   - SPSC: a single-producer/single-consumer ring, cheaper than the
//     MPMC by two CAS loops per transfer where each end is owned by
//     exactly one goroutine. It has no runtime user: every TX lane is
//     one MPMC ring (DESIGN.md §11). It stays only as the subject of the
//     repository benchmark's ringbuf.spsc_ns layer row, until a
//     benchmark change retires the two together.
//   - MPMC: a Vyukov-style bounded multi-producer/multi-consumer ring,
//     used everywhere: TX lanes, sink RX rings (fed by pollers and
//     run-to-completion emitters alike), and the memory manager's
//     free-slot list. Every element is a few words at most — a slot id, a
//     TX token, a sink descriptor — and crosses by value.
//
// Both are fixed capacity (a power of two), never allocate after
// construction, and never block: full/empty conditions are reported to the
// caller, which decides whether to retry, back off, or drop.
package ringbuf

import (
	"fmt"
	"sync/atomic"
)

// cacheLinePad separates hot atomics to avoid false sharing between the
// producer and consumer cache lines.
type cacheLinePad [64]byte

// SPSC is a bounded single-producer/single-consumer lock-free ring.
// Exactly one goroutine may call Push/TryPush and exactly one may call
// Pop/TryPop; under that contract all operations are wait-free.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_    cacheLinePad
	head atomic.Uint64 // next slot to pop (owned by consumer)
	_    cacheLinePad
	tail atomic.Uint64 // next slot to push (owned by producer)
	_    cacheLinePad
}

// NewSPSC returns an SPSC ring holding up to capacity elements.
// Capacity is rounded up to the next power of two and must be at least 1.
func NewSPSC[T any](capacity int) (*SPSC[T], error) {
	n, err := ceilPow2(capacity)
	if err != nil {
		return nil, fmt.Errorf("ringbuf: %w", err)
	}
	return &SPSC[T]{buf: make([]T, n), mask: n - 1}, nil
}

// TryPush appends v and reports whether there was room.
//
//insane:hotpath
func (r *SPSC[T]) TryPush(v T) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.buf)) {
		return false // full
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1)
	return true
}

// TryPop removes and returns the oldest element, if any.
//
//insane:hotpath
func (r *SPSC[T]) TryPop() (T, bool) {
	var zero T
	head := r.head.Load()
	if head == r.tail.Load() {
		return zero, false // empty
	}
	v := r.buf[head&r.mask]
	r.buf[head&r.mask] = zero // release references for GC
	r.head.Store(head + 1)
	return v, true
}

// PushBatch appends up to len(src) elements and returns how many were
// accepted. The single producer owns the tail, so the whole batch costs
// one atomic load of head and one store of tail — the SPSC analogue of
// the MPMC PushBatch run-claim, without the CAS (the paper's
// opportunistic batching, §6.2). Elements become visible to the consumer
// only at the final tail store, in order.
//
//insane:hotpath
func (r *SPSC[T]) PushBatch(src []T) int {
	tail := r.tail.Load()
	free := uint64(len(r.buf)) - (tail - r.head.Load())
	n := uint64(len(src))
	if free < n {
		n = free
	}
	//insane:bounded by=n <= len(src), the caller's batch buffer
	for i := uint64(0); i < n; i++ {
		r.buf[(tail+i)&r.mask] = src[i]
	}
	if n > 0 {
		r.tail.Store(tail + n)
	}
	return int(n)
}

// PopBatch pops up to len(dst) elements into dst and returns the count.
// Batched draining is what lets the runtime's polling threads amortize
// per-wakeup costs (the paper's opportunistic batching, §6.2).
//
//insane:hotpath
func (r *SPSC[T]) PopBatch(dst []T) int {
	var zero T
	head := r.head.Load()
	avail := r.tail.Load() - head
	n := uint64(len(dst))
	if avail < n {
		n = avail
	}
	//insane:bounded by=n <= len(dst), the caller's batch buffer
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & r.mask
		dst[i] = r.buf[idx]
		r.buf[idx] = zero
	}
	if n > 0 {
		r.head.Store(head + n)
	}
	return int(n)
}

// Len returns the number of buffered elements. The result is a snapshot and
// may be stale by the time it is observed.
func (r *SPSC[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Cap returns the ring capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Empty reports whether the ring appeared empty at the time of the call.
func (r *SPSC[T]) Empty() bool { return r.Len() == 0 }

// ceilPow2 rounds n up to a power of two, validating the range.
func ceilPow2(n int) (uint64, error) {
	if n < 1 {
		return 0, fmt.Errorf("capacity %d must be >= 1", n)
	}
	if n > 1<<30 {
		return 0, fmt.Errorf("capacity %d too large", n)
	}
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	return p, nil
}
