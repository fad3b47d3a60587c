package mempool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func newIntPool(t *testing.T, sharedCap int) *CachePool[*int] {
	t.Helper()
	// Sibling caches call the factory concurrently.
	var built atomic.Int64
	p, err := NewCachePool[*int](sharedCap, func() *int {
		v := int(built.Add(1))
		return &v
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCacheHitAfterPut(t *testing.T) {
	c := newIntPool(t, 8).NewCache(4)
	a := c.Get()
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after cold Get: %+v", s)
	}
	c.Put(a)
	b := c.Get()
	if b != a {
		t.Error("Get after Put did not return the recycled object")
	}
	if s := c.Stats(); s.Hits != 1 || s.Recycles != 1 || s.Misses != 1 {
		t.Fatalf("after recycle: %+v", s)
	}
}

// TestCacheSpillAndRefill: overflowing one cache spills to the shared
// ring, which then refills a sibling cache.
func TestCacheSpillAndRefill(t *testing.T) {
	p := newIntPool(t, 16)
	a, b := p.NewCache(4), p.NewCache(4)

	objs := make([]*int, 8)
	for i := range objs {
		objs[i] = a.Get()
	}
	for _, o := range objs {
		a.Put(o)
	}
	// 8 puts into a cache of 4: at least one spill batch reached the
	// shared ring, and nothing was dropped (shared has room).
	if s := a.Stats(); s.Drops != 0 || s.Recycles != 8 {
		t.Fatalf("after overflow puts: %+v", s)
	}
	if p.shared.Len() == 0 {
		t.Fatal("no objects spilled to the shared ring")
	}

	spilled := p.shared.Len()
	for i := 0; i < spilled; i++ {
		b.Get()
	}
	if s := b.Stats(); s.Refills != uint64(spilled) || s.Misses != 0 {
		t.Fatalf("sibling refill: %+v (spilled %d)", s, spilled)
	}
}

// TestCacheDropWhenEverythingFull: puts beyond local+shared capacity are
// dropped to the GC, not stuck.
func TestCacheDropWhenEverythingFull(t *testing.T) {
	p := newIntPool(t, 1) // shared rounds up to the MPMC minimum, 2
	c := p.NewCache(2)
	held := make([]*int, 5) // one more than local cap + shared cap
	for i := 0; i < 16; i++ {
		for j := range held {
			held[j] = c.Get()
		}
		for _, v := range held {
			c.Put(v)
		}
	}
	s := c.Stats()
	if s.Drops == 0 {
		t.Fatalf("expected drops with tiny shared ring: %+v", s)
	}
	// The cache must still function after drops.
	if c.Get() == nil {
		t.Fatal("Get returned nil after drops")
	}
}

// TestCacheConcurrentSiblings exercises distinct caches of one pool from
// concurrent goroutines (the per-poller regime) under -race.
func TestCacheConcurrentSiblings(t *testing.T) {
	p := newIntPool(t, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := p.NewCache(8)
			held := make([]*int, 0, 4)
			for i := 0; i < 10_000; i++ {
				held = append(held, c.Get())
				if len(held) == cap(held) {
					for _, v := range held {
						if v == nil {
							t.Error("nil object from cache")
							return
						}
						c.Put(v)
					}
					held = held[:0]
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkCacheGetPut(b *testing.B) {
	p, err := NewCachePool[*int](64, func() *int { return new(int) })
	if err != nil {
		b.Fatal(err)
	}
	c := p.NewCache(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put(c.Get())
	}
}
