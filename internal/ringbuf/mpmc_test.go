package ringbuf

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewMPMCInvalidCapacity(t *testing.T) {
	if _, err := NewMPMC[int](0); err == nil {
		t.Error("NewMPMC(0): want error, got nil")
	}
}

// TestMPMCCapacityOnePromoted: a capacity-1 request is promoted to 2
// cells. With a single cell, Vyukov's seq encoding cannot tell "free for
// position p+1" from "published at position p", so a push into a full
// ring would overwrite the unconsumed element and wedge TryPop forever.
func TestMPMCCapacityOnePromoted(t *testing.T) {
	q, err := NewMPMC[int](1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 2 {
		t.Fatalf("Cap() = %d, want 2", q.Cap())
	}
	// Fill, overflow, and drain repeatedly: every accepted element must
	// come back out, and a full ring must reject pushes rather than
	// corrupt itself.
	for lap := 0; lap < 4; lap++ {
		if !q.TryPush(10*lap) || !q.TryPush(10*lap+1) {
			t.Fatalf("lap %d: push into empty ring failed", lap)
		}
		if q.TryPush(99) || q.PushBatch([]int{99}) != 0 {
			t.Fatalf("lap %d: push into full ring succeeded", lap)
		}
		for i := 0; i < 2; i++ {
			v, ok := q.TryPop()
			if !ok || v != 10*lap+i {
				t.Fatalf("lap %d: TryPop = %d,%v want %d,true", lap, v, ok, 10*lap+i)
			}
		}
		if _, ok := q.TryPop(); ok {
			t.Fatalf("lap %d: TryPop succeeded on empty ring", lap)
		}
	}
}

func TestMPMCPushPopOrderSingleThread(t *testing.T) {
	q, err := NewMPMC[int](8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !q.TryPush(i) {
			t.Fatalf("TryPush(%d) failed", i)
		}
	}
	if q.TryPush(99) {
		t.Error("TryPush succeeded on full ring")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("TryPop = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Error("TryPop succeeded on empty ring")
	}
}

func TestMPMCWrapAround(t *testing.T) {
	q, err := NewMPMC[int](4)
	if err != nil {
		t.Fatal(err)
	}
	for lap := 0; lap < 1000; lap++ {
		if !q.TryPush(lap) {
			t.Fatalf("lap %d: push failed", lap)
		}
		v, ok := q.TryPop()
		if !ok || v != lap {
			t.Fatalf("lap %d: pop = %d,%v", lap, v, ok)
		}
	}
}

// TestMPMCConcurrentExactlyOnce runs multiple producers and consumers and
// verifies no element is lost or duplicated.
func TestMPMCConcurrentExactlyOnce(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 2_000
	)
	q, err := NewMPMC[int](256)
	if err != nil {
		t.Fatal(err)
	}
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				v := p*perProd + i
				for !q.TryPush(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}

	var mu sync.Mutex
	seen := make(map[int]int, producers*perProd)
	var consWG sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			local := make(map[int]int)
			for {
				v, ok := q.TryPop()
				if ok {
					local[v]++
					continue
				}
				runtime.Gosched()
				select {
				case <-done:
					// Final drain after producers stop.
					for {
						v, ok := q.TryPop()
						if !ok {
							break
						}
						local[v]++
					}
					mu.Lock()
					for k, n := range local {
						seen[k] += n
					}
					mu.Unlock()
					return
				default:
				}
			}
		}()
	}
	prodWG.Wait()
	close(done)
	consWG.Wait()

	if len(seen) != producers*perProd {
		t.Fatalf("saw %d distinct values, want %d", len(seen), producers*perProd)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("value %d seen %d times", k, n)
		}
	}
}

// TestMPMCPerProducerOrder: with concurrent consumers, values from a single
// producer must still be observed in that producer's push order.
func TestMPMCPerProducerOrder(t *testing.T) {
	const perProd = 2_000
	q, err := NewMPMC[[2]int](128)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for !q.TryPush([2]int{p, i}) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	lastSeen := map[int]int{0: -1, 1: -1}
	got := 0
	for got < 2*perProd {
		v, ok := q.TryPop()
		if !ok {
			runtime.Gosched()
			continue
		}
		p, i := v[0], v[1]
		if i <= lastSeen[p] {
			t.Fatalf("producer %d: value %d after %d", p, i, lastSeen[p])
		}
		lastSeen[p] = i
		got++
	}
	wg.Wait()
}

func TestMPMCQuickFIFO(t *testing.T) {
	prop := func(vals []uint16) bool {
		q, err := NewMPMC[uint16](32)
		if err != nil {
			return false
		}
		pushed := 0
		for _, v := range vals {
			if !q.TryPush(v) {
				break
			}
			pushed++
		}
		for i := 0; i < pushed; i++ {
			v, ok := q.TryPop()
			if !ok || v != vals[i] {
				return false
			}
		}
		_, ok := q.TryPop()
		return !ok
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMPMCBatchEmptyAndFull(t *testing.T) {
	q, err := NewMPMC[int](4)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 8)
	if n := q.PopBatch(dst); n != 0 {
		t.Fatalf("PopBatch on empty ring = %d, want 0", n)
	}
	if n := q.PopBatch(nil); n != 0 {
		t.Fatalf("PopBatch(nil) = %d, want 0", n)
	}
	if n := q.PushBatch([]int{1, 2, 3, 4, 5, 6}); n != 4 {
		t.Fatalf("PushBatch into empty ring of 4 = %d, want 4", n)
	}
	if n := q.PushBatch([]int{7}); n != 0 {
		t.Fatalf("PushBatch into full ring = %d, want 0", n)
	}
	if n := q.PushBatch(nil); n != 0 {
		t.Fatalf("PushBatch(nil) = %d, want 0", n)
	}
	n := q.PopBatch(dst)
	if n != 4 {
		t.Fatalf("PopBatch = %d, want 4", n)
	}
	for i, v := range dst[:n] {
		if v != i+1 {
			t.Fatalf("dst[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// TestMPMCBatchPartial: a batch pop takes only what is published, and a
// batch push only what fits.
func TestMPMCBatchPartial(t *testing.T) {
	q, err := NewMPMC[int](8)
	if err != nil {
		t.Fatal(err)
	}
	if n := q.PushBatch([]int{10, 11, 12}); n != 3 {
		t.Fatalf("PushBatch = %d, want 3", n)
	}
	dst := make([]int, 8)
	if n := q.PopBatch(dst[:2]); n != 2 || dst[0] != 10 || dst[1] != 11 {
		t.Fatalf("PopBatch(2) = %d (%v), want 2 (10 11)", n, dst[:2])
	}
	// 1 element left, 7 free: an oversized push is truncated to the room.
	big := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if n := q.PushBatch(big); n != 7 {
		t.Fatalf("PushBatch(10) with 7 free = %d, want 7", n)
	}
	want := []int{12, 0, 1, 2, 3, 4, 5, 6}
	if n := q.PopBatch(dst); n != 8 {
		t.Fatalf("PopBatch = %d, want 8", n)
	}
	for i, w := range want {
		if dst[i] != w {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], w)
		}
	}
}

// TestMPMCBatchWrapAround pushes/pops batches across the index wrap many
// laps, interleaved with the single-element operations.
func TestMPMCBatchWrapAround(t *testing.T) {
	q, err := NewMPMC[int](8)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]int, 5)
	dst := make([]int, 5)
	next := 0 // next value to pop, verifying global FIFO order
	seq := 0
	for lap := 0; lap < 2000; lap++ {
		for i := range src {
			src[i] = seq
			seq++
		}
		if n := q.PushBatch(src); n != 5 {
			t.Fatalf("lap %d: PushBatch = %d, want 5", lap, n)
		}
		if lap%3 == 0 { // mix in the single-element path
			v, ok := q.TryPop()
			if !ok || v != next {
				t.Fatalf("lap %d: TryPop = %d,%v want %d", lap, v, ok, next)
			}
			next++
		}
		for q.Len() > 3 {
			n := q.PopBatch(dst)
			if n == 0 {
				t.Fatalf("lap %d: PopBatch returned 0 with %d queued", lap, q.Len())
			}
			for _, v := range dst[:n] {
				if v != next {
					t.Fatalf("lap %d: popped %d, want %d", lap, v, next)
				}
				next++
			}
		}
	}
}

// TestMPMCBatchConcurrentExactlyOnce round-trips every token exactly once
// through concurrent batch producers and batch consumers (run under
// -race in CI).
func TestMPMCBatchConcurrentExactlyOnce(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5_000
		batchMax  = 16
	)
	q, err := NewMPMC[int](128)
	if err != nil {
		t.Fatal(err)
	}
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			buf := make([]int, 0, batchMax)
			sent := 0
			for sent < perProd {
				buf = buf[:0]
				for i := 0; i < batchMax && sent+len(buf) < perProd; i++ {
					buf = append(buf, p*perProd+sent+len(buf))
				}
				rest := buf
				for len(rest) > 0 {
					n := q.PushBatch(rest)
					rest = rest[n:]
					if n == 0 {
						runtime.Gosched()
					}
				}
				sent += len(buf)
			}
		}(p)
	}

	var mu sync.Mutex
	seen := make(map[int]int, producers*perProd)
	var consWG sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			local := make(map[int]int)
			dst := make([]int, batchMax)
			drain := func() {
				for {
					n := q.PopBatch(dst)
					if n == 0 {
						return
					}
					for _, v := range dst[:n] {
						local[v]++
					}
				}
			}
			for {
				if n := q.PopBatch(dst); n > 0 {
					for _, v := range dst[:n] {
						local[v]++
					}
					continue
				}
				runtime.Gosched()
				select {
				case <-done:
					drain()
					mu.Lock()
					for k, n := range local {
						seen[k] += n
					}
					mu.Unlock()
					return
				default:
				}
			}
		}()
	}
	prodWG.Wait()
	close(done)
	consWG.Wait()

	if len(seen) != producers*perProd {
		t.Fatalf("saw %d distinct values, want %d", len(seen), producers*perProd)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("value %d seen %d times", k, n)
		}
	}
}

// TestMPMCBatchMixedWithSingle: batch producers against single-element
// consumers (and vice versa) must still deliver exactly once.
func TestMPMCBatchMixedWithSingle(t *testing.T) {
	const total = 20_000
	q, err := NewMPMC[int](64)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]int, 7)
		v := 0
		for v < total {
			n := 0
			for n < len(buf) && v+n < total {
				buf[n] = v + n
				n++
			}
			rest := buf[:n]
			for len(rest) > 0 {
				k := q.PushBatch(rest)
				rest = rest[k:]
				if k == 0 {
					runtime.Gosched()
				}
			}
			v += n
		}
	}()
	seen := make([]bool, total)
	got := 0
	for got < total {
		v, ok := q.TryPop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v < 0 || v >= total || seen[v] {
			t.Fatalf("bad or duplicate value %d", v)
		}
		seen[v] = true
		got++
	}
}

func BenchmarkMPMCPushPop(b *testing.B) {
	q, _ := NewMPMC[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.TryPush(uint64(i))
		q.TryPop()
	}
}

// TestMPMCLenStaysInsideOccupancyBand: Len is the occupancy of one
// instant. Each worker pops one element and pushes it back, so at every
// instant at most one element per worker is out of a ring that started
// with fill: the true occupancy never leaves [fill-workers, fill], and no
// Len read beside them may either. A Len built from two unrelated loads
// reads far below the band when its caller is preempted between them — as
// far as empty, which is how the mempool saw an exhausted class with most
// of it free.
func TestMPMCLenStaysInsideOccupancyBand(t *testing.T) {
	const (
		workers = 4
		fill    = 48
		rounds  = 20000
	)
	q, err := NewMPMC[int](64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fill; i++ {
		q.TryPush(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, ok := q.TryPop()
				for !ok { // a neighbour has claimed the cell and not yet published it
					runtime.Gosched()
					v, ok = q.TryPop()
				}
				for !q.TryPush(v) {
					runtime.Gosched()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	reads := 0
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		if n := q.Len(); n < fill-workers || n > fill {
			t.Fatalf("read %d: Len = %d, outside the occupancy band [%d, %d]", reads, n, fill-workers, fill)
		}
		if reads%64 == 0 {
			runtime.Gosched() // let the workers run on a small box
		}
	}
	if n := q.Len(); n != fill {
		t.Errorf("Len = %d after the workers stopped, want %d", n, fill)
	}
}

func BenchmarkMPMCBatch16(b *testing.B) {
	q, _ := NewMPMC[uint64](1024)
	src := make([]uint64, 16)
	dst := make([]uint64, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.PushBatch(src)
		q.PopBatch(dst)
	}
}

func BenchmarkMPMCContended(b *testing.B) {
	q, _ := NewMPMC[uint64](1024)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !q.TryPush(1) {
				q.TryPop()
			}
		}
	})
}
