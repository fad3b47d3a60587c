// Package dirty is a deliberately violating module used by the driver
// test: insanevet must exit 1 on it.
package dirty

import "sync"

// Buffer mimics the zero-copy send buffer.
type Buffer struct{ Payload []byte }

// Source mimics the client-library producer.
type Source struct{}

// Emit mimics the ownership-transferring send, annotated the way the
// real client library is so the registry-driven paircheck rule
// recognizes it as consuming.
//
//insane:transfer resource=slot on=nilerr
func (s *Source) Emit(b *Buffer, n int) (uint32, error) { _ = b; return 0, nil }

// Bad touches a buffer after emitting it.
func Bad(s *Source, b *Buffer) byte {
	s.Emit(b, 1)
	return b.Payload[0]
}

// Counter guards its count with a mutex.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Add releases the lock only when the count is below the limit: the
// other path returns with it held.
func (c *Counter) Add(limit int) {
	c.mu.Lock()
	if c.n < limit {
		c.n++
		c.mu.Unlock()
	}
}
