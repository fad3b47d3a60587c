// Package a seeds atomicfield violations: mixed plain/atomic access to
// ordinary fields. (Copies of sync/atomic value fields are go vet's.)
package a

import "sync/atomic"

// counters mirrors the runtime's counter blocks.
type counters struct {
	loops atomic.Uint64
	n     uint64
	plain int
}

// Seeded violation 1: plain write to a field that is accessed
// atomically elsewhere in the package.
func plainWrite(c *counters) {
	atomic.AddUint64(&c.n, 1)
	c.n = 0 // want `accessed atomically elsewhere`
}

// Seeded violation 2: plain read of the same field, in a function with
// no atomic call of its own (the property is package-wide).
func plainRead(c *counters) uint64 {
	return c.n // want `accessed atomically elsewhere`
}

// Method calls, address-taking and the sync/atomic functions are the
// intended API; untouched plain fields stay unrestricted.
func ok(c *counters) uint64 {
	c.loops.Add(1)
	p := &c.loops
	p.Store(0)
	c.plain++
	return c.loops.Load() + atomic.LoadUint64(&c.n)
}

// Composite-literal construction of a not-yet-shared value is accepted.
func fresh() *counters {
	return &counters{}
}

// The suppression path: an explicit, reasoned directive waives the
// finding.
func suppressed(c *counters) uint64 {
	//lint:ignore insanevet/atomicfield fixture proving the suppression path
	return c.n
}
