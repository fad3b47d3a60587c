package mempool

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"github.com/insane-mw/insane/internal/timebase"
)

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(Config{Classes: []ClassConfig{
		{SlotSize: 128, Slots: 8},
		{SlotSize: 1024, Slots: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	bad := []Config{
		{Classes: []ClassConfig{{SlotSize: 0, Slots: 1}}},
		{Classes: []ClassConfig{{SlotSize: 64, Slots: 0}}},
		{Classes: []ClassConfig{{SlotSize: 64, Slots: -3}}},
	}
	for i, cfg := range bad {
		if _, err := NewManager(cfg); err == nil {
			t.Errorf("case %d: want error, got nil", i)
		}
	}
}

func TestNewManagerDefaults(t *testing.T) {
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	free := m.FreeSlots()
	if len(free) != len(DefaultClasses) {
		t.Fatalf("FreeSlots classes = %d, want %d", len(free), len(DefaultClasses))
	}
	for i, c := range DefaultClasses {
		if free[i] != c.Slots {
			t.Errorf("class %d free = %d, want %d", i, free[i], c.Slots)
		}
	}
}

func TestGetPicksSmallestFittingClass(t *testing.T) {
	m := newTestManager(t)
	id, buf, err := m.Get(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 128 {
		t.Errorf("small request buf len = %d, want 128", len(buf))
	}

	id2, buf2, err := m.Get(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf2) != 1024 {
		t.Errorf("large request buf len = %d, want 1024", len(buf2))
	}
	if id == id2 {
		t.Error("distinct borrows returned same slot id")
	}
}

func TestGetTooLarge(t *testing.T) {
	m := newTestManager(t)
	if _, _, err := m.Get(4096, 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Get(4096) err = %v, want ErrTooLarge", err)
	}
}

func TestGetExhaustionAndOverflowToLargerClass(t *testing.T) {
	m := newTestManager(t)
	// Drain the small class entirely.
	ids := make([]SlotID, 0, 8)
	for i := 0; i < 8; i++ {
		id, _, err := m.Get(64, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Next small request overflows into the 1024 class.
	id, buf, err := m.Get(64, 1)
	if err != nil {
		t.Fatalf("overflow Get: %v", err)
	}
	if len(buf) != 1024 {
		t.Errorf("overflow buf len = %d, want 1024", len(buf))
	}
	// Drain the large class too.
	for i := 0; i < 3; i++ {
		if _, _, err := m.Get(64, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.Get(64, 1); !errors.Is(err, ErrExhausted) {
		t.Errorf("exhausted Get err = %v, want ErrExhausted", err)
	}
	// Releasing brings capacity back.
	if err := m.Release(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(64, 1); err != nil {
		t.Errorf("Get after release: %v", err)
	}
}

func TestSlotBuffersDoNotOverlap(t *testing.T) {
	m := newTestManager(t)
	id1, b1, _ := m.Get(128, 1)
	id2, b2, _ := m.Get(128, 1)
	for i := range b1 {
		b1[i] = 0xAA
	}
	for i := range b2 {
		b2[i] = 0x55
	}
	for i, v := range b1 {
		if v != 0xAA {
			t.Fatalf("slot %v byte %d clobbered", id1, i)
		}
	}
	for i, v := range b2 {
		if v != 0x55 {
			t.Fatalf("slot %v byte %d clobbered", id2, i)
		}
	}

	// The last slot of one chunk and the first of the next live in
	// different allocations: fill every slot of two chunks, then check.
	m, err := NewManager(Config{Classes: []ClassConfig{{SlotSize: 128, Slots: 2 * chunkSlots}}})
	if err != nil {
		t.Fatal(err)
	}
	bufs := make(map[SlotID][]byte)
	for i := 0; i < 2*chunkSlots; i++ {
		id, buf, err := m.Get(128, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(id.index())
		}
		bufs[id] = buf
	}
	for _, idx := range []int{chunkSlots - 1, chunkSlots} {
		id := makeSlotID(0, idx)
		buf, err := m.Buf(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if &buf[0] != &bufs[id][0] {
			t.Fatalf("Buf(%v) is not the buffer Get returned", id)
		}
	}
	for id, buf := range bufs {
		for j, v := range buf {
			if v != byte(id.index()) {
				t.Fatalf("slot %v byte %d clobbered", id, j)
			}
		}
	}
}

func TestReleaseLifecycle(t *testing.T) {
	m := newTestManager(t)
	id, _, err := m.Get(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(id); err == nil {
		t.Error("double release: want error, got nil")
	}
	if _, err := m.Buf(id, 7); err == nil {
		t.Error("Buf after release: want error, got nil")
	}
}

// TestBufChecksOwner: Buf hands out a slot's buffer only while the slot is
// borrowed and held by the owner asked about, so a slot released and
// borrowed again by someone else fails it like a free one.
func TestBufChecksOwner(t *testing.T) {
	m := newTestManager(t)
	id, buf, err := m.Get(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.Buf(id, 7); err != nil || &got[0] != &buf[0] {
		t.Errorf("Buf(owner 7) = %v, want the borrowed buffer", err)
	}
	if _, err := m.Buf(id, NoOwner); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Buf(another owner) = %v, want ErrBadSlot", err)
	}
	m.SetOwner(id, NoOwner)
	if _, err := m.Buf(id, NoOwner); err != nil {
		t.Errorf("Buf after SetOwner = %v", err)
	}
	if err := m.Release(id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Buf(id, NoOwner); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Buf of a free slot = %v, want ErrBadSlot", err)
	}
}

// TestHeaderIsOneLine pins a slot's header at one 64 B cache line, and
// every committed chunk's header array on a line boundary in both default
// classes, so no header spans two lines. Held returns the slot's own
// header and bytes.
func TestHeaderIsOneLine(t *testing.T) {
	if size := unsafe.Sizeof(Header{}); size != 64 {
		t.Errorf("Header is %d bytes, want 64", size)
	}
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var held []SlotID
	defer func() {
		for _, id := range held {
			_ = m.Release(id)
		}
	}()
	// Three chunks of each class: the first slot of a chunk goes to its
	// borrower, the rest to the free ring.
	for _, c := range DefaultClasses {
		for i := 0; i < 2*chunkSlots+1; i++ {
			id, buf, err := m.Get(c.SlotSize, 1)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, id)
			h, got := m.Held(id)
			if h != m.Header(id) || &got[0] != &buf[0] || len(got) != len(buf) || cap(got) != cap(buf) {
				t.Fatalf("Held(%v) is not the slot's header and bytes", id)
			}
		}
	}
	for pi, p := range m.pools {
		committed := int(p.committed.Load())
		if committed != 3*chunkSlots {
			t.Fatalf("class %d: %d slots committed, want %d", pi, committed, 3*chunkSlots)
		}
		for c := 0; c < committed/chunkSlots; c++ {
			if addr := uintptr(unsafe.Pointer(p.chunks[c].Load().hdrs)); addr%64 != 0 {
				t.Errorf("class %d chunk %d: header array at %#x, %d B into a line", pi, c, addr, addr%64)
			}
		}
	}
}

func TestAddRefMultiSink(t *testing.T) {
	m := newTestManager(t)
	id, _, err := m.Get(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate delivery to 3 sinks: 2 extra refs.
	if err := m.AddRef(id, 2); err != nil {
		t.Fatal(err)
	}
	freeBefore := m.FreeSlots()[0]
	for i := 0; i < 2; i++ {
		if err := m.Release(id); err != nil {
			t.Fatal(err)
		}
		if got := m.FreeSlots()[0]; got != freeBefore {
			t.Fatalf("slot recycled early after %d releases", i+1)
		}
	}
	if err := m.Release(id); err != nil {
		t.Fatal(err)
	}
	if got := m.FreeSlots()[0]; got != freeBefore+1 {
		t.Errorf("slot not recycled after final release: free = %d", got)
	}
	if err := m.AddRef(id, 1); err == nil {
		t.Error("AddRef on freed slot: want error, got nil")
	}
}

func TestBadSlotIDs(t *testing.T) {
	m := newTestManager(t)
	for _, id := range []SlotID{NoSlot, makeSlotID(5, 0), makeSlotID(0, 99)} {
		if err := m.Release(id); err == nil {
			t.Errorf("Release(%v): want error", id)
		}
		if _, err := m.Buf(id, NoOwner); err == nil {
			t.Errorf("Buf(%v): want error", id)
		}
	}

	// A valid id whose chunk was never committed is a slot not in use.
	m, err := NewManager(Config{Classes: []ClassConfig{{SlotSize: 128, Slots: 2 * chunkSlots}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(64, 1); err != nil {
		t.Fatal(err)
	}
	id := makeSlotID(0, chunkSlots)
	if err := m.Release(id); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Release(%v) in an uncommitted chunk: err = %v, want ErrBadSlot", id, err)
	}
	if _, err := m.Buf(id, 1); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Buf(%v) in an uncommitted chunk: err = %v, want ErrBadSlot", id, err)
	}
	if err := m.AddRef(id, 1); !errors.Is(err, ErrBadSlot) {
		t.Errorf("AddRef(%v) in an uncommitted chunk: err = %v, want ErrBadSlot", id, err)
	}
	if got := m.CommittedSlots()[0]; got != chunkSlots {
		t.Errorf("committed = %d after rejecting an uncommitted id, want %d", got, chunkSlots)
	}
}

// TestPoolCommitsOnDemand: a class allocates its bytes one chunk at a time,
// the first time its committed slots are all borrowed, and keeps them;
// what a borrower sees — free counts, overflow, exhaustion — is what a
// fully committed class would show.
func TestPoolCommitsOnDemand(t *testing.T) {
	const small, large = 2*chunkSlots + 8, chunkSlots
	m, err := NewManager(Config{Classes: []ClassConfig{
		{SlotSize: 128, Slots: small},
		{SlotSize: 1024, Slots: large},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var live []SlotID
	check := func(step string, committed0, committed1 int) {
		t.Helper()
		borrowed := [2]int{}
		for _, id := range live {
			borrowed[id.pool()]++
		}
		if got := m.CommittedSlots(); got[0] != committed0 || got[1] != committed1 {
			t.Fatalf("%s: committed = %v, want [%d %d]", step, got, committed0, committed1)
		}
		if got := m.FreeSlots(); got[0] != small-borrowed[0] || got[1] != large-borrowed[1] {
			t.Fatalf("%s: free = %v, want [%d %d]", step, got, small-borrowed[0], large-borrowed[1])
		}
	}
	get := func(size int) []byte {
		t.Helper()
		id, buf, err := m.Get(size, 1)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
		return buf
	}

	check("fresh", 0, 0)
	get(64)
	check("first borrow", chunkSlots, 0)
	for len(live) < chunkSlots+1 {
		get(64)
	}
	check("chunkSlots+1 borrows", 2*chunkSlots, 0)
	for len(live) < small {
		get(64)
		check("filling the small class", min(small, (len(live)+chunkSlots-1)/chunkSlots*chunkSlots), 0)
	}
	check("small class full", small, 0)
	// The small class is full: the next small request overflows into the
	// large class, which commits its first chunk.
	if buf := get(64); len(buf) != 1024 {
		t.Errorf("overflow buf len = %d, want 1024", len(buf))
	}
	check("overflow", small, chunkSlots)
	for len(live) < small+large {
		get(64)
	}
	if _, _, err := m.Get(64, 1); !errors.Is(err, ErrExhausted) {
		t.Errorf("exhausted Get err = %v, want ErrExhausted", err)
	}
	if _, _, err := m.Get(4096, 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Get(4096) err = %v, want ErrTooLarge", err)
	}
	check("both classes full", small, large)

	for len(live) > 0 {
		id := live[len(live)-1]
		live = live[:len(live)-1]
		if err := m.Release(id); err != nil {
			t.Fatal(err)
		}
		check("releasing", small, large)
	}
}

// TestConcurrentGrowth: borrowers racing on an empty manager commit every
// chunk exactly once and never hand a slot, its bytes or its header, to two
// of them.
func TestConcurrentGrowth(t *testing.T) {
	// tagHeader fills every header field from a borrower's tag.
	tagHeader := func(tag uint32) Header {
		v := time.Duration(tag)
		return Header{
			Breakdown: timebase.Breakdown{Send: v + 1, Network: v + 2, Recv: v + 3, Processing: v + 4},
			AdmitT:    timebase.VTime(v + 5),
			PushT:     timebase.VTime(v + 6),
			Len:       tag,
			Stamps:    uint8(tag),
		}
	}
	const slots = 8*chunkSlots + 5
	m, err := NewManager(Config{Classes: []ClassConfig{{SlotSize: 64, Slots: slots}}})
	if err != nil {
		t.Fatal(err)
	}
	type borrow struct {
		id  SlotID
		buf []byte
		tag uint32
	}
	got := make([][]borrow, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				id, buf, err := m.Get(64, Owner(g+1))
				if errors.Is(err, ErrExhausted) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				tag := uint32(g)<<24 | uint32(n)
				for i := 0; i+4 <= len(buf); i += 4 {
					binary.LittleEndian.PutUint32(buf[i:], tag)
				}
				*m.Header(id) = tagHeader(tag)
				got[g] = append(got[g], borrow{id, buf, tag})
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[SlotID]bool, slots)
	for _, bs := range got {
		for _, b := range bs {
			if seen[b.id] {
				t.Fatalf("slot %v borrowed twice", b.id)
			}
			seen[b.id] = true
			for i := 0; i+4 <= len(b.buf); i += 4 {
				if v := binary.LittleEndian.Uint32(b.buf[i:]); v != b.tag {
					t.Fatalf("slot %v byte %d: %#x, want %#x", b.id, i, v, b.tag)
				}
			}
			if h := *m.Header(b.id); h != tagHeader(b.tag) {
				t.Fatalf("slot %v header %+v, want %+v", b.id, h, tagHeader(b.tag))
			}
		}
	}
	if len(seen) != slots {
		t.Fatalf("borrowed %d slots to exhaustion, want %d", len(seen), slots)
	}
	if c := m.CommittedSlots()[0]; c != slots {
		t.Fatalf("committed = %d, want %d", c, slots)
	}
	for id := range seen {
		if err := m.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	if free := m.FreeSlots()[0]; free != slots {
		t.Fatalf("free = %d after releasing everything, want %d", free, slots)
	}
}

func TestReleaseOwner(t *testing.T) {
	m := newTestManager(t)
	var mine []SlotID
	for i := 0; i < 3; i++ {
		id, _, err := m.Get(64, 42)
		if err != nil {
			t.Fatal(err)
		}
		mine = append(mine, id)
	}
	other, _, err := m.Get(64, 43)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.ReleaseOwner(42); n != 3 {
		t.Errorf("ReleaseOwner reclaimed %d, want 3", n)
	}
	if n := m.ReleaseOwner(42); n != 0 {
		t.Errorf("second ReleaseOwner reclaimed %d, want 0", n)
	}
	if n := m.ReleaseOwner(NoOwner); n != 0 {
		t.Errorf("ReleaseOwner(NoOwner) reclaimed %d, want 0", n)
	}
	// Other owner's slot still live.
	if _, err := m.Buf(other, 43); err != nil {
		t.Errorf("other owner's slot was reclaimed: %v", err)
	}
	// Reclaimed slots usable again.
	for range mine {
		if _, _, err := m.Get(64, 1); err != nil {
			t.Fatalf("Get after ReleaseOwner: %v", err)
		}
	}
}

func TestStats(t *testing.T) {
	m := newTestManager(t)
	id, _, _ := m.Get(64, 1)
	m.Get(64, 1)
	m.Get(1<<20, 1) // fails
	m.Release(id)
	s := m.Stats()
	if s.Gets != 2 || s.Failures != 1 || s.Releases != 1 {
		t.Errorf("Stats = %+v, want {2 1 1}", s)
	}
}

// TestQuickBorrowReleaseConservation: any interleaving of borrows and
// releases conserves the total slot count.
func TestQuickBorrowReleaseConservation(t *testing.T) {
	prop := func(ops []bool) bool {
		m, err := NewManager(Config{Classes: []ClassConfig{{SlotSize: 64, Slots: 16}}})
		if err != nil {
			return false
		}
		var live []SlotID
		for _, borrow := range ops {
			if borrow {
				if id, _, err := m.Get(32, 1); err == nil {
					live = append(live, id)
				}
			} else if len(live) > 0 {
				id := live[len(live)-1]
				live = live[:len(live)-1]
				if err := m.Release(id); err != nil {
					return false
				}
			}
		}
		return m.FreeSlots()[0] == 16-len(live)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestConcurrentGetRelease hammers the manager from many goroutines and
// checks conservation at the end.
func TestConcurrentGetRelease(t *testing.T) {
	m, err := NewManager(Config{Classes: []ClassConfig{{SlotSize: 256, Slots: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(owner Owner) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id, buf, err := m.Get(100, owner)
				if err != nil {
					continue
				}
				buf[0] = byte(owner)
				if buf[0] != byte(owner) {
					t.Errorf("lost write on %v", id)
					return
				}
				if err := m.Release(id); err != nil {
					t.Errorf("release %v: %v", id, err)
					return
				}
			}
		}(Owner(g + 1))
	}
	wg.Wait()
	if free := m.FreeSlots()[0]; free != 64 {
		t.Errorf("free = %d after workload, want 64", free)
	}
}

func BenchmarkGetRelease(b *testing.B) {
	m, _ := NewManager(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id, _, err := m.Get(1024, 1)
		if err != nil {
			b.Fatal(err)
		}
		m.Release(id)
	}
}

func TestAddRefRejectsNonPositive(t *testing.T) {
	m := newTestManager(t)
	id, _, err := m.Get(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddRef(id, 0); err == nil {
		t.Error("AddRef(0) accepted")
	}
	if err := m.AddRef(id, -2); err == nil {
		t.Error("AddRef(-2) accepted")
	}
	if err := m.Release(id); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReleaseAndReleaseOwnerUnchargesOnce races the normal
// release path against the crash-reclaim path for the same slots. The
// old plain *Budget pointer let both observe it non-nil and uncharge
// twice, silently inflating the tenant's quota; the atomic.Pointer
// Swap(nil) makes settlement exactly-once, so used must come back to
// exactly zero — never negative — every round.
func TestConcurrentReleaseAndReleaseOwnerUnchargesOnce(t *testing.T) {
	const owner Owner = 3
	for round := 0; round < 200; round++ {
		m := newTestManager(t)
		b := NewBudget(8)
		var ids []SlotID
		for {
			id, _, err := m.GetBudget(64, owner, b)
			if err != nil {
				break
			}
			ids = append(ids, id)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				_ = m.Release(id)
			}
		}()
		go func() {
			defer wg.Done()
			m.ReleaseOwner(owner)
		}()
		wg.Wait()
		if used := b.Used(); used != 0 {
			t.Fatalf("round %d: budget used = %d after full release, want 0 (negative means a double uncharge)", round, used)
		}
	}
}

// TestStatsDerivedCounts: Gets and Releases are derived from the free
// rings, not counted; they must still equal a count kept beside the calls,
// across chunk growth, overflow into a larger class, exhaustion,
// multi-reference slots, ReleaseOwner and concurrent borrowers.
func TestStatsDerivedCounts(t *testing.T) {
	const small, large = 2*chunkSlots + 3, 6
	m, err := NewManager(Config{Classes: []ClassConfig{
		{SlotSize: 64, Slots: small},
		{SlotSize: 512, Slots: large},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var gets, releases, fails uint64
	check := func(step string) {
		t.Helper()
		want := Stats{Gets: gets, Failures: fails, Releases: releases}
		if got := m.Stats(); got != want {
			t.Fatalf("%s: Stats = %+v, want %+v", step, got, want)
		}
	}
	check("fresh")

	// Borrow everything: three chunks of the small class, then overflow
	// into the large one, then exhaustion.
	var live []SlotID
	for {
		id, _, err := m.Get(32, Owner(1+len(live)%2))
		if errors.Is(err, ErrExhausted) {
			fails++
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		gets++
		live = append(live, id)
	}
	if len(live) != small+large {
		t.Fatalf("borrowed %d slots, want %d", len(live), small+large)
	}
	if _, _, err := m.Get(4096, 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Get(4096) = %v, want ErrTooLarge", err)
	}
	fails++
	check("exhausted")

	// A slot with three references recycles once, on the last release.
	if err := m.AddRef(live[0], 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Release(live[0]); err != nil {
			t.Fatal(err)
		}
	}
	releases++
	if err := m.Release(live[0]); err == nil {
		t.Fatal("fourth release of a three-reference slot accepted")
	}
	check("multi-reference release")

	// ReleaseOwner recycles owner 2's slots, one release each.
	n := m.ReleaseOwner(2)
	if n != (small+large)/2 {
		t.Fatalf("ReleaseOwner reclaimed %d, want %d", n, (small+large)/2)
	}
	releases += uint64(n)
	check("ReleaseOwner")
	for _, id := range live[1:] {
		if _, err := m.Buf(id, 1); err != nil {
			continue // reclaimed above
		}
		if err := m.Release(id); err != nil {
			t.Fatal(err)
		}
		releases++
	}
	check("all released")

	// Concurrent borrowers on the recycled slots.
	var cGets, cFails atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(owner Owner) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id, _, err := m.Get(32, owner)
				if err != nil {
					cFails.Add(1)
					continue
				}
				cGets.Add(1)
				if err := m.Release(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(Owner(g + 1))
	}
	wg.Wait()
	gets += cGets.Load()
	releases += cGets.Load()
	fails += cFails.Load()
	check("concurrent borrowers")
}

// TestSlotStateRaces races every operation on a slot's state word — AddRef,
// Release, SetOwner, Buf and a crash-reclaiming ReleaseOwner — over shared
// slots, budgeted and not. Each round one owner crashes: its slots see
// references come and go but never their borrower's release, so only
// ReleaseOwner can recycle them, and it must not skip one whose CAS lost to
// a reference. Whatever the interleaving, each slot recycles once, its
// budget is uncharged exactly once, and every free slot is left with no
// budget and a zero state word for the next borrower.
func TestSlotStateRaces(t *testing.T) {
	const slots, rounds = 24, 100
	m, err := NewManager(Config{Classes: []ClassConfig{{SlotSize: 64, Slots: slots}}})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []*Budget{NewBudget(0), NewBudget(0), nil} // owners 1, 2, 3
	for round := 0; round < rounds; round++ {
		type borrowed struct {
			id    SlotID
			owner Owner
		}
		var held []borrowed
		for i := 0; i < slots; i++ {
			owner := Owner(1 + i%3)
			id, _, err := m.GetBudget(32, owner, budgets[owner-1])
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, borrowed{id, owner})
		}
		crashed := Owner(1 + round%3)
		var reclaimed int
		var wg sync.WaitGroup
		for _, h := range held {
			wg.Add(1)
			go func(h borrowed) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					if m.AddRef(h.id, 1) == nil {
						m.SetOwner(h.id, h.owner)
						_ = m.Release(h.id)
					}
				}
				if h.owner != crashed {
					_ = m.Release(h.id)
				}
			}(h)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			reclaimed = m.ReleaseOwner(crashed)
		}()
		go func() {
			defer wg.Done()
			for _, h := range held {
				_, _ = m.Buf(h.id, h.owner)
			}
		}()
		wg.Wait()

		if reclaimed != slots/3 {
			t.Fatalf("round %d: ReleaseOwner reclaimed %d slots of owner %d, want %d", round, reclaimed, crashed, slots/3)
		}
		for i, b := range budgets[:2] {
			if used := b.Used(); used != 0 {
				t.Fatalf("round %d: owner %d budget used = %d, want 0 (negative: uncharged twice)", round, i+1, used)
			}
		}
		if free := m.FreeSlots()[0]; free != slots {
			t.Fatalf("round %d: %d of %d slots free", round, free, slots)
		}
		p := m.pools[0]
		for i := range p.states[:p.committed.Load()] {
			if w, b := p.states[i].word.Load(), p.states[i].budget.Load(); w != 0 || b != nil {
				t.Fatalf("round %d: free slot %d has state %#x, budget %p", round, i, w, b)
			}
		}
		if s := m.Stats(); s.Gets != s.Releases || s.Gets != uint64((round+1)*slots) {
			t.Fatalf("round %d: Stats = %+v, want %d gets and releases", round, s, (round+1)*slots)
		}
	}
}
