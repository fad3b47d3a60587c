// Package mempool implements the INSANE memory manager (§5.3 of the paper):
// the component that decouples the technology-agnostic API from the
// heterogeneous zero-copy mechanisms of each datapath.
//
// At startup the manager reserves memory areas (pools) divided into
// fixed-size slots, each uniquely identified within its pool by a slot id.
// Applications and the runtime exchange slot ids — never bytes — over the
// token rings, which is what makes the transfer zero-copy inside a host.
// Slots are reference counted so a single received packet can be delivered
// to multiple local sinks (Fig. 8b) without copies.
//
// In the C prototype the pool is a shared-memory segment registered with the
// NIC for DMA; here it is Go byte slices shared by the runtime and the
// (in-process) client library, which preserves the programming model and
// the slot-id protocol exactly.
//
// Every slot has a fixed Header beside its bytes: the message's virtual
// clock, its length and its stamps. Per-packet metadata lives with the
// packet, as in a VPP buffer, so the descriptors that cross threads by
// value — the TX token, the fabric's RX descriptor, a sink-ring element —
// carry a slot id and a few bytes more and nothing else.
//
// A class reserves its slot ids, states and free ring for every slot at
// startup, but commits its bytes and headers as traffic needs them: one
// chunk of chunkSlots slots, allocated the first time the class runs out
// of committed free slots and kept for the manager's lifetime. The first
// borrow past a class's committed slots therefore allocates; the steady
// state, which recycles committed slots, allocates nothing.
package mempool

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/insane-mw/insane/internal/ringbuf"
	"github.com/insane-mw/insane/internal/timebase"
)

// Errors returned by the manager.
var (
	// ErrExhausted is returned by Get when no free slot of a suitable
	// class is available. Callers typically back off and retry: under
	// sustained overload this is the built-in flow control of the
	// zero-copy design (a sender cannot outrun slot recycling).
	ErrExhausted = errors.New("mempool: no free slot available")
	// ErrTooLarge is returned when the requested size exceeds every
	// configured slot class.
	ErrTooLarge = errors.New("mempool: requested size exceeds largest slot class")
	// ErrBadSlot is returned for operations on slot ids that do not
	// identify a live, borrowed slot.
	ErrBadSlot = errors.New("mempool: invalid slot id or slot not in use")
)

// SlotID uniquely identifies a slot across all pools of one manager.
// The high bits select the pool (size class), the low bits the slot index.
type SlotID uint32

const (
	poolShift = 24
	indexMask = (1 << poolShift) - 1
)

// NoSlot is the zero SlotID sentinel; valid ids are never equal to it
// because pool numbering starts at 1.
const NoSlot SlotID = 0

func makeSlotID(pool, index int) SlotID {
	return SlotID(uint32(pool+1)<<poolShift | uint32(index))
}

func (id SlotID) pool() int  { return int(id>>poolShift) - 1 }
func (id SlotID) index() int { return int(id & indexMask) }

// String renders the id as pool/index for diagnostics.
func (id SlotID) String() string {
	if id == NoSlot {
		return "slot(none)"
	}
	return fmt.Sprintf("slot(%d/%d)", id.pool(), id.index())
}

// ClassConfig describes one slot size class of a pool.
type ClassConfig struct {
	// SlotSize is the usable bytes per slot. Must be > 0.
	SlotSize int
	// Slots is the number of slots in the class. Must be > 0.
	Slots int
}

// Config configures a Manager.
type Config struct {
	// Classes lists the slot size classes. They are sorted by SlotSize
	// internally; Get picks the smallest class that fits a request.
	// If empty, DefaultClasses is used.
	Classes []ClassConfig
}

// DefaultClasses mirrors the evaluation setup: a standard-MTU class and a
// jumbo-frame class (the paper enables jumbo frames for payloads > 1.5 KB).
var DefaultClasses = []ClassConfig{
	{SlotSize: 2048, Slots: 4096},
	{SlotSize: 9216, Slots: 1024},
}

// Owner identifies the session that borrowed a slot, used to reclaim slots
// when a client detaches without releasing (crash / migration).
type Owner int32

// NoOwner marks a slot borrowed by the runtime itself.
const NoOwner Owner = 0

// slotState tracks the lifecycle of one slot.
//
//insane:shared
type slotState struct {
	// word is the slot's reference count and owner in one word (see
	// packState): Buf checks it with one load, a borrow publishes it with
	// one store, and AddRef, SetOwner and Release change it with one CAS.
	// Zero is a free slot.
	word atomic.Uint64 //insane:guardedby atomic
	// budget is the tenant budget the slot is charged against, nil for
	// unbudgeted borrows and for every free slot: a borrow writes it, when
	// it has one, before it publishes word, and only the release whose CAS
	// takes the count to zero clears it, before the slot goes back to the
	// free ring. Atomic because a final Release and a crash-reclaiming
	// ReleaseOwner on another goroutine both read it.
	budget atomic.Pointer[Budget] //insane:guardedby atomic
}

// charge records the budget a borrow was charged against, before the
// borrow publishes the state word; the release that frees the slot
// uncharges it (pool.recycle).
//
//insane:transfer resource=tenant-mem
func (st *slotState) charge(b *Budget) { st.budget.Store(b) }

// packState is a slot's state word: the owner in the high half, the
// reference count in the low half.
func packState(refs uint32, owner Owner) uint64 {
	return uint64(uint32(owner))<<32 | uint64(refs)
}

// stateRefs and stateOwner unpack a state word.
func stateRefs(w uint64) uint32 { return uint32(w) }
func stateOwner(w uint64) Owner { return Owner(int32(w >> 32)) }

// Header is the per-message metadata a slot carries beside its bytes: the
// virtual clock of the message it holds, and what every sink of a delivery
// shares — its payload length, which stamps it carries and when it entered
// the sink rings. Whoever holds the slot's reference writes and reads it; a
// borrow does not clear it, so a writer sets every field its readers use.
// It is one cache line, and a chunk's header array starts on a line
// boundary (TestHeaderIsOneLine).
type Header struct {
	// VTime is the message's accumulated virtual timestamp.
	VTime timebase.VTime
	// Breakdown splits VTime by Fig. 6 stage.
	Breakdown timebase.Breakdown
	// AdmitT is the runtime clock when Emit admitted a sampled message:
	// the reading its emit_pickup, stage_send and consume_latency spans
	// open with. Unset and unread on every other message.
	AdmitT timebase.VTime
	// PushT is the runtime clock when a sampled message entered its sink
	// rings, or was picked up off the wire: the reading its stage_recv
	// span opens with. Unset and unread on every other message.
	PushT timebase.VTime
	// Len is the length of the delivered payload.
	Len uint32
	// Stamps says which of AdmitT and PushT hold; zero for an unsampled
	// message. The runtime gives the values their meaning.
	Stamps uint8
}

// chunkSlots is how many slots one commit of a class allocates: 128 KiB
// in the 2 KB class, 576 KiB in the 9 KB class, plus chunkSlots headers.
const chunkSlots = 64

// chunk is one commit of a class: chunkSlots slots' headers and bytes. The
// headers are an allocation of their own with no pointers in it, so the
// array starts on a cache line: the allocator puts a pointerful object
// over 512 B 8 B into its first line, behind a type header, which would
// split 48 of every 64 headers across two lines.
type chunk struct {
	hdrs  *[chunkSlots]Header
	bytes []byte
}

// pool is one size class: slot bookkeeping sized for every slot, and the
// headers and backing bytes in chunks of chunkSlots slots, committed on
// demand. The free ring holds committed slots only.
//
//insane:shared
type pool struct {
	slotSize int                   //insane:guardedby immutable after=NewManager
	states   []slotState           //insane:guardedby immutable after=NewManager
	free     *ringbuf.MPMC[uint32] //insane:guardedby immutable after=NewManager
	// chunks[c] backs slots [c*chunkSlots, (c+1)*chunkSlots); nil until
	// grow commits it.
	chunks []atomic.Pointer[chunk] //insane:guardedby immutable after=NewManager
	// committed counts the slots whose chunk is allocated; only grow
	// raises it, under growMu.
	committed atomic.Int32 //insane:guardedby atomic
	growMu    sync.Mutex
}

// Manager owns the memory pools and the borrow/release protocol.
// All methods are safe for concurrent use.
//
//insane:shared
type Manager struct {
	pools []*pool //insane:guardedby immutable after=NewManager

	// fails counts refused borrows. Borrows and releases are not counted
	// here: Stats derives them from the free rings (DESIGN.md §8).
	fails atomic.Uint64 //insane:guardedby atomic
}

// NewManager reserves the configured pools' slot ids and bookkeeping up
// front and commits no slot bytes: a class allocates one chunk the first
// time a borrow finds its committed slots all in use, and nothing once
// traffic recycles the slots it has committed.
func NewManager(cfg Config) (*Manager, error) {
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = DefaultClasses
	}
	sorted := make([]ClassConfig, len(classes))
	copy(sorted, classes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].SlotSize < sorted[j].SlotSize })

	if len(sorted) >= 1<<8 {
		return nil, fmt.Errorf("mempool: too many classes (%d)", len(sorted))
	}
	m := &Manager{pools: make([]*pool, 0, len(sorted))}
	for _, c := range sorted {
		if c.SlotSize <= 0 || c.Slots <= 0 {
			return nil, fmt.Errorf("mempool: invalid class %+v", c)
		}
		if c.Slots > indexMask {
			return nil, fmt.Errorf("mempool: class has too many slots (%d)", c.Slots)
		}
		free, err := ringbuf.NewMPMC[uint32](c.Slots)
		if err != nil {
			return nil, fmt.Errorf("mempool: %w", err)
		}
		m.pools = append(m.pools, &pool{
			slotSize: c.SlotSize,
			states:   make([]slotState, c.Slots),
			free:     free,
			chunks:   make([]atomic.Pointer[chunk], (c.Slots+chunkSlots-1)/chunkSlots),
		})
	}
	return m, nil
}

// Get borrows a slot able to hold size bytes for the given owner.
// The returned buffer aliases pool memory: it is valid until Release
// (or the final Release when the reference count was raised).
//
//insane:hotpath
//insane:acquire resource=mem-slot on=nilerr
func (m *Manager) Get(size int, owner Owner) (SlotID, []byte, error) {
	return m.GetBudget(size, owner, nil)
}

// GetBudget is Get with tenant accounting: the borrow is charged against
// b (nil skips accounting entirely) and returns ErrQuota when the
// tenant's cap is reached. The final Release — or a crash-reclaim via
// ReleaseOwner — uncharges the budget automatically.
//
//insane:hotpath
//insane:acquire resource=mem-slot on=nilerr
func (m *Manager) GetBudget(size int, owner Owner, b *Budget) (SlotID, []byte, error) {
	if b != nil && !b.TryCharge() {
		return NoSlot, nil, ErrQuota // the tenant's refusal, not the pools'
	}
	//insane:bounded by=one entry per slot-size class, fixed at manager construction
	for pi, p := range m.pools {
		if size > p.slotSize {
			continue
		}
		idx, ok := p.free.TryPop()
		if !ok {
			if idx, ok = p.popFreeContended(); !ok {
				if idx, ok = p.grow(); !ok {
					continue // class exhausted; try a larger one
				}
			}
		}
		st := &p.states[idx]
		if b != nil {
			st.charge(b) // a free slot's budget is nil already
		}
		st.word.Store(packState(1, owner))
		id := makeSlotID(pi, int(idx))
		return id, p.slotBuf(int(idx)), nil
	}
	if b != nil {
		b.Uncharge()
	}
	m.fails.Add(1)
	if len(m.pools) > 0 && size > m.pools[len(m.pools)-1].slotSize {
		//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
		return NoSlot, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	return NoSlot, nil, ErrExhausted
}

// Buf returns the full buffer of a slot that is borrowed and held by
// owner, the session the caller expects it to be: a slot that was
// released, and maybe borrowed again by someone else since, fails with
// ErrBadSlot. The runtime proves an emitted message's slot still its own
// (NoOwner) with it before it touches the slot's header.
//
//insane:hotpath
func (m *Manager) Buf(id SlotID, owner Owner) ([]byte, error) {
	p, idx, err := m.locate(id)
	if err != nil {
		return nil, err
	}
	w := p.states[idx].word.Load()
	if stateRefs(w) == 0 || stateOwner(w) != owner {
		//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
		return nil, fmt.Errorf("%w: %v", ErrBadSlot, id)
	}
	return p.slotBuf(idx), nil
}

// Header returns the header of a slot the caller holds a reference to. It
// checks nothing and allocates nothing: the pointer is valid while the
// reference is, and a slot the caller does not hold may be another
// borrower's by now.
//
//insane:hotpath
func (m *Manager) Header(id SlotID) *Header {
	idx := id.index()
	return &m.pools[id.pool()].chunks[idx/chunkSlots].Load().hdrs[idx%chunkSlots]
}

// Held returns the header and the full buffer of a slot the caller holds a
// reference to, with one chunk lookup. Like Header it checks nothing.
//
//insane:hotpath
func (m *Manager) Held(id SlotID) (*Header, []byte) {
	p, idx := m.pools[id.pool()], id.index()
	c := p.chunks[idx/chunkSlots].Load()
	off := idx % chunkSlots * p.slotSize
	return &c.hdrs[idx%chunkSlots], c.bytes[off : off+p.slotSize : off+p.slotSize]
}

// AddRef raises the reference count of a borrowed slot by n (multi-sink
// delivery takes one reference per sink before handing out the slot id).
//
//insane:hotpath
func (m *Manager) AddRef(id SlotID, n int) error {
	if n <= 0 {
		//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
		return fmt.Errorf("mempool: AddRef count %d must be positive", n)
	}
	p, idx, err := m.locate(id)
	if err != nil {
		return err
	}
	st := &p.states[idx]
	//insane:bounded by=lock-free CAS retry: a failed swap means another referencer made progress
	for {
		w := st.word.Load()
		if stateRefs(w) == 0 {
			//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
			return fmt.Errorf("%w: %v", ErrBadSlot, id)
		}
		if st.word.CompareAndSwap(w, w+uint64(n)) {
			return nil
		}
	}
}

// SetOwner changes the session ReleaseOwner reclaims a borrowed slot for;
// a free slot stays free. The runtime takes an emitted slot over with
// NoOwner, and hands it back when the message could not be queued after
// all.
//
//insane:hotpath
func (m *Manager) SetOwner(id SlotID, owner Owner) {
	p, idx, err := m.locate(id)
	if err != nil {
		return
	}
	st := &p.states[idx]
	//insane:bounded by=lock-free CAS retry: a failed swap means another referencer made progress
	for {
		w := st.word.Load()
		if stateRefs(w) == 0 || st.word.CompareAndSwap(w, packState(stateRefs(w), owner)) {
			return
		}
	}
}

// Release drops one reference; the release that drops the last one clears
// the owner in the same step and returns the slot to its pool's free ring.
//
//insane:hotpath
//insane:release resource=mem-slot
func (m *Manager) Release(id SlotID) error {
	p, idx, err := m.locate(id)
	if err != nil {
		return err
	}
	st := &p.states[idx]
	//insane:bounded by=lock-free CAS retry: a failed swap means another referencer made progress
	for {
		w := st.word.Load()
		next := w - 1
		switch stateRefs(w) {
		case 0:
			//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
			return fmt.Errorf("%w: double release of %v", ErrBadSlot, id)
		case 1:
			next = 0 // free: no references, no owner
		}
		if !st.word.CompareAndSwap(w, next) {
			continue
		}
		if next == 0 && !p.recycle(idx) {
			//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
			return fmt.Errorf("mempool: free ring overflow for %v", id)
		}
		return nil
	}
}

// recycle finishes the release of a slot whose state word the caller's CAS
// took to zero: only that caller gets here, once per borrow. The budget is
// uncharged and cleared before the slot is back on the free ring, where the
// next borrower finds it nil. False means the ring was full: a slot was
// released twice.
//
//insane:hotpath
func (p *pool) recycle(idx int) bool {
	if p.states[idx].budget.Load() != nil {
		if b := p.states[idx].budget.Swap(nil); b != nil {
			b.Uncharge()
		}
	}
	return p.free.TryPush(uint32(idx)) || p.pushFreeContended(uint32(idx))
}

// The free ring is a Vyukov MPMC ring: a TryPush or TryPop that fails may
// only have run into a cell another goroutine has claimed and not yet
// published (a Get or Release descheduled between its two steps), which
// the ring cannot tell from full or empty. Taking that at face value
// leaks every slot released, or fails every borrow, until the stalled
// goroutine runs again. The two slow paths below compare against Len,
// which counts the cells claimed at one instant, and wait the stall out.

// pushFreeContended returns a slot index to the free ring after a failed
// TryPush. The ring holds every index at most once and its capacity is at
// least the slot count, so false — the ring really is full — means a slot
// was released twice.
//
//insane:coldpath a Get was descheduled between claiming a free-ring cell and marking it consumed
func (p *pool) pushFreeContended(idx uint32) bool {
	for !p.free.TryPush(idx) {
		if p.free.Len() == p.free.Cap() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// popFreeContended takes a free slot index after a failed TryPop; false
// means the class is exhausted.
//
//insane:coldpath a Release was descheduled between claiming a free-ring cell and publishing it
func (p *pool) popFreeContended() (uint32, bool) {
	for p.free.Len() > 0 {
		if idx, ok := p.free.TryPop(); ok {
			return idx, true
		}
		runtime.Gosched()
	}
	return 0, false
}

// grow takes a slot for a borrower that found the class's free ring
// empty: a slot another borrower committed while this one waited for
// growMu, or else the first slot of the next uncommitted chunk, whose
// other slots go to the free ring. false means every chunk is committed
// and every slot borrowed. The chunk — its headers and its bytes — and
// the committed count are published before its slots, so a popped slot
// always has both and FreeSlots never reads above capacity.
//
//insane:coldpath the class's committed slots are all borrowed: at most one chunk allocation per chunkSlots slots, for the manager's lifetime
func (p *pool) grow() (uint32, bool) {
	p.growMu.Lock()
	defer p.growMu.Unlock()
	if idx, ok := p.popFreeContended(); ok {
		return idx, true
	}
	first := int(p.committed.Load())
	if first == len(p.states) {
		return 0, false
	}
	n := min(chunkSlots, len(p.states)-first)
	p.chunks[first/chunkSlots].Store(&chunk{
		hdrs:  new([chunkSlots]Header),
		bytes: make([]byte, n*p.slotSize),
	})
	p.committed.Store(int32(first + n))
	for i := first + 1; i < first+n; i++ {
		p.pushFreeContended(uint32(i)) // the ring has room for every slot
	}
	return uint32(first), true
}

// ReleaseOwner force-releases every slot currently borrowed by owner,
// returning how many were reclaimed. The runtime calls this when a client
// session detaches (the migration / crash path): what the session borrowed
// and never emitted — an emitted slot is the runtime's (SetOwner).
func (m *Manager) ReleaseOwner(owner Owner) int {
	if owner == NoOwner {
		return 0
	}
	reclaimed := 0
	for _, p := range m.pools {
		for idx := range p.states {
			st := &p.states[idx]
			// Drop all outstanding references at once. A failed CAS means
			// a reference moved, not that the slot changed hands: look
			// again rather than skip it.
			for {
				w := st.word.Load()
				if stateRefs(w) == 0 || stateOwner(w) != owner {
					break
				}
				if st.word.CompareAndSwap(w, 0) {
					p.recycle(idx)
					reclaimed++
					break
				}
			}
		}
	}
	return reclaimed
}

// FreeSlots reports the currently free slot count per class, smallest
// class first: the class's capacity less its borrowed slots, committed or
// not.
func (m *Manager) FreeSlots() []int {
	out := make([]int, len(m.pools))
	for i, p := range m.pools {
		// The ring before the count: grow raises the count before it
		// pushes, so a pushed slot seen here is never counted twice.
		free := p.free.Len()
		out[i] = free + len(p.states) - int(p.committed.Load())
	}
	return out
}

// CommittedSlots reports, per class and smallest class first, how many
// slots have their bytes allocated. It only grows: a class commits a chunk
// when it runs out of committed free slots and keeps it.
func (m *Manager) CommittedSlots() []int {
	out := make([]int, len(m.pools))
	for i, p := range m.pools {
		out[i] = int(p.committed.Load())
	}
	return out
}

// ClassInfo describes one configured size class.
type ClassInfo struct {
	// SlotSize is the usable bytes per slot.
	SlotSize int
	// Slots is the configured slot count of the class.
	Slots int
}

// Classes reports the configured size classes, smallest first; exporters
// pair it with FreeSlots to publish capacity and occupancy gauges.
func (m *Manager) Classes() []ClassInfo {
	out := make([]ClassInfo, len(m.pools))
	for i, p := range m.pools {
		out[i] = ClassInfo{SlotSize: p.slotSize, Slots: len(p.states)}
	}
	return out
}

// Stats reports cumulative manager activity.
type Stats struct {
	Gets     uint64 // successful borrows
	Failures uint64 // exhausted/oversized requests
	Releases uint64 // slots fully recycled
}

// Stats returns a snapshot of cumulative counters. Borrows and releases
// are derived, not counted: every borrow pops a slot off its class's free
// ring but one per chunk, which grow hands straight to its borrower, and
// every final release pushes one, beside the slots grow pushes when it
// commits a chunk. Holding growMu keeps a chunk's commit and its pushes
// together in the figures.
func (m *Manager) Stats() Stats {
	s := Stats{Failures: m.fails.Load()}
	for _, p := range m.pools {
		p.growMu.Lock()
		committed := uint64(p.committed.Load())
		chunks := (committed + chunkSlots - 1) / chunkSlots
		s.Gets += p.free.Popped() + chunks
		s.Releases += p.free.Pushed() - (committed - chunks)
		p.growMu.Unlock()
	}
	return s
}

func (m *Manager) locate(id SlotID) (*pool, int, error) {
	pi, idx := id.pool(), id.index()
	if pi < 0 || pi >= len(m.pools) {
		//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
		return nil, 0, fmt.Errorf("%w: %v", ErrBadSlot, id)
	}
	p := m.pools[pi]
	if idx >= len(p.states) {
		//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
		return nil, 0, fmt.Errorf("%w: %v", ErrBadSlot, id)
	}
	return p, idx, nil
}

// slotBuf returns a committed slot's bytes; a slot with refs > 0, or one
// just popped from the free ring, is committed.
func (p *pool) slotBuf(idx int) []byte {
	b := p.chunks[idx/chunkSlots].Load().bytes
	off := idx % chunkSlots * p.slotSize
	return b[off : off+p.slotSize : off+p.slotSize]
}
