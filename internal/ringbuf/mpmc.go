package ringbuf

import (
	"fmt"
	"sync/atomic"
)

// mpmcCell is one slot of the MPMC ring. seq encodes the slot state:
// producers may write when seq == position, consumers may read when
// seq == position+1 (Vyukov's bounded MPMC algorithm).
type mpmcCell[T any] struct {
	seq atomic.Uint64
	val T
}

// MPMC is a bounded multi-producer/multi-consumer lock-free ring.
// Any number of goroutines may push and pop concurrently.
type MPMC[T any] struct {
	cells []mpmcCell[T]
	mask  uint64

	_    cacheLinePad
	head atomic.Uint64 // next position to pop
	_    cacheLinePad
	tail atomic.Uint64 // next position to push
	_    cacheLinePad
}

// NewMPMC returns an MPMC ring holding up to capacity elements.
// Capacity is rounded up to the next power of two and must be at least 1;
// a capacity of 1 is silently promoted to 2 because Vyukov's sequence
// encoding cannot distinguish "free for position p+1" from "published at
// position p" when both map to the same cell one lap apart (a push into
// a full 1-cell ring would overwrite the unconsumed element and wedge
// the consumer).
func NewMPMC[T any](capacity int) (*MPMC[T], error) {
	if capacity == 1 {
		capacity = 2
	}
	n, err := ceilPow2(capacity)
	if err != nil {
		return nil, fmt.Errorf("ringbuf: %w", err)
	}
	q := &MPMC[T]{cells: make([]mpmcCell[T], n), mask: n - 1}
	for i := range q.cells {
		q.cells[i].seq.Store(uint64(i))
	}
	return q, nil
}

// TryPush appends v and reports whether there was room.
//
//insane:hotpath
func (q *MPMC[T]) TryPush(v T) bool {
	pos := q.tail.Load()
	//insane:bounded by=lock-free CAS retry: a failed claim means another producer made progress
	for {
		cell := &q.cells[pos&q.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos:
			// Slot free at this position: claim it.
			if q.tail.CompareAndSwap(pos, pos+1) {
				cell.val = v
				cell.seq.Store(pos + 1) // publish
				return true
			}
			pos = q.tail.Load()
		case seq < pos:
			// The slot one lap behind has not been consumed: full.
			return false
		default:
			// Another producer claimed pos; reload and retry.
			pos = q.tail.Load()
		}
	}
}

// TryPop removes and returns the oldest element, if any.
//
//insane:hotpath
func (q *MPMC[T]) TryPop() (T, bool) {
	var zero T
	pos := q.head.Load()
	//insane:bounded by=lock-free CAS retry: a failed claim means another consumer made progress
	for {
		cell := &q.cells[pos&q.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos+1:
			// Published at this position: claim it.
			if q.head.CompareAndSwap(pos, pos+1) {
				v := cell.val
				cell.val = zero
				cell.seq.Store(pos + q.mask + 1) // free for next lap
				return v, true
			}
			pos = q.head.Load()
		case seq <= pos:
			// Not yet published: empty.
			return zero, false
		default:
			// Another consumer claimed pos; reload and retry.
			pos = q.head.Load()
		}
	}
}

// PushBatch appends up to len(src) elements and returns how many were
// accepted. The claim is sequence-aware: the producer first counts how
// many consecutive cells starting at the current tail are free (seq ==
// position), then claims the whole run with one CAS, so a burst costs
// one atomic RMW instead of one per element — the MPMC analogue of the
// SPSC PopBatch that the paper's opportunistic batching relies on
// (§6.2). Elements are published in order; concurrent consumers may
// start popping the front of the run before the tail is written.
//
//insane:hotpath
func (q *MPMC[T]) PushBatch(src []T) int {
	if len(src) == 0 {
		return 0
	}
	//insane:bounded by=lock-free CAS retry: a failed claim means another producer made progress
	for {
		pos := q.tail.Load()
		// Count the run of free cells at pos. Cell states only move
		// forward (free → published → free-next-lap), and no producer
		// can claim these positions before our tail CAS succeeds, so an
		// observed free cell stays free until we own it.
		n := uint64(0)
		//insane:bounded by=n <= len(src), the caller's batch buffer
		for n < uint64(len(src)) {
			cell := &q.cells[(pos+n)&q.mask]
			if cell.seq.Load() != pos+n {
				break
			}
			n++
		}
		if n == 0 {
			// Front cell not free: either full, or a racing producer
			// advanced tail between our loads — reload to distinguish.
			if q.tail.Load() == pos {
				return 0 // genuinely full
			}
			continue
		}
		if !q.tail.CompareAndSwap(pos, pos+n) {
			continue // lost the claim race; retry with fresh tail
		}
		//insane:bounded by=n <= len(src), the caller's batch buffer
		for i := uint64(0); i < n; i++ {
			cell := &q.cells[(pos+i)&q.mask]
			cell.val = src[i]
			cell.seq.Store(pos + i + 1) // publish
		}
		return int(n)
	}
}

// PopBatch removes up to len(dst) elements into dst and returns the
// count. Like PushBatch, it counts the run of published cells at the
// current head (seq == position+1), claims the run with one CAS, and
// only then reads the values: once the CAS succeeds no other consumer
// can touch those positions, and producers cannot reuse them until each
// cell's seq is bumped to the next lap.
//
//insane:hotpath
func (q *MPMC[T]) PopBatch(dst []T) int {
	var zero T
	if len(dst) == 0 {
		return 0
	}
	//insane:bounded by=lock-free CAS retry: a failed claim means another consumer made progress
	for {
		pos := q.head.Load()
		n := uint64(0)
		//insane:bounded by=n <= len(dst), the caller's batch buffer
		for n < uint64(len(dst)) {
			cell := &q.cells[(pos+n)&q.mask]
			if cell.seq.Load() != pos+n+1 {
				break
			}
			n++
		}
		if n == 0 {
			if q.head.Load() == pos {
				return 0 // genuinely empty
			}
			continue
		}
		if !q.head.CompareAndSwap(pos, pos+n) {
			continue
		}
		//insane:bounded by=n <= len(dst), the caller's batch buffer
		for i := uint64(0); i < n; i++ {
			cell := &q.cells[(pos+i)&q.mask]
			dst[i] = cell.val
			cell.val = zero
			cell.seq.Store(pos + i + q.mask + 1) // free for next lap
		}
		return int(n)
	}
}

// Len returns the number of elements buffered — cells claimed by a push
// and not yet claimed by a pop — at one instant of the call. head is read
// on both sides of tail and the pair kept only if it did not move: head
// only grows, so it then had that value when tail was read. Two
// independent loads are not a snapshot: a caller descheduled between them
// subtracts a head that has since run past its tail and reads a ring that
// is nearly full as empty (the mempool's exhausted-class test did).
//
//insane:hotpath
func (q *MPMC[T]) Len() int {
	//insane:bounded by=lock-free retry: head moved, so a consumer made progress
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		if q.head.Load() == head {
			return int(tail - head)
		}
	}
}

// Cap returns the ring capacity.
func (q *MPMC[T]) Cap() int { return len(q.cells) }

// Popped returns how many elements pops have claimed since the ring was
// built: the head position. A pop counts from its claim, before it has
// read the cell.
func (q *MPMC[T]) Popped() uint64 { return q.head.Load() }

// Pushed returns how many elements pushes have claimed since the ring was
// built: the tail position. A push counts from its claim, before it has
// published the cell.
func (q *MPMC[T]) Pushed() uint64 { return q.tail.Load() }
