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
// A class reserves its slot ids, states and free ring for every slot at
// startup, but commits its bytes as traffic needs them: one chunk of
// chunkSlots slots, allocated the first time the class runs out of
// committed free slots and kept for the manager's lifetime. The first
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
	refs  atomic.Int32 //insane:guardedby atomic
	owner atomic.Int32 //insane:guardedby atomic
	// budget is the tenant budget the slot is charged against, nil for
	// unbudgeted borrows. Atomic for two reasons: the guardcheck regime
	// proof cannot see the free-ring ownership argument that made a plain
	// pointer borderline-safe, and the Swap in the release paths makes
	// the uncharge exactly-once even if a final Release races a
	// crash-reclaiming ReleaseOwner.
	budget atomic.Pointer[Budget] //insane:guardedby atomic
}

// chunkSlots is how many slots one commit of a class allocates: 128 KiB
// in the 2 KB class, 576 KiB in the 9 KB class.
const chunkSlots = 64

// pool is one size class: slot bookkeeping sized for every slot, and the
// backing bytes in chunks of chunkSlots slots, committed on demand. The
// free ring holds committed slots only.
//
//insane:shared
type pool struct {
	slotSize int                   //insane:guardedby immutable after=NewManager
	states   []slotState           //insane:guardedby immutable after=NewManager
	free     *ringbuf.MPMC[uint32] //insane:guardedby immutable after=NewManager
	// chunks[c] backs slots [c*chunkSlots, (c+1)*chunkSlots); nil until
	// grow commits it.
	chunks []atomic.Pointer[[]byte] //insane:guardedby immutable after=NewManager
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

	// stats
	gets     atomic.Uint64 //insane:guardedby atomic
	fails    atomic.Uint64 //insane:guardedby atomic
	releases atomic.Uint64 //insane:guardedby atomic
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
			chunks:   make([]atomic.Pointer[[]byte], (c.Slots+chunkSlots-1)/chunkSlots),
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
		st.refs.Store(1)
		st.owner.Store(int32(owner))
		st.budget.Store(b)
		m.gets.Add(1)
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

// Buf returns the full buffer of a borrowed slot.
//
//insane:hotpath
func (m *Manager) Buf(id SlotID) ([]byte, error) {
	p, idx, err := m.locate(id)
	if err != nil {
		return nil, err
	}
	if p.states[idx].refs.Load() <= 0 {
		//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
		return nil, fmt.Errorf("%w: %v", ErrBadSlot, id)
	}
	return p.slotBuf(idx), nil
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
		cur := st.refs.Load()
		if cur <= 0 {
			//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
			return fmt.Errorf("%w: %v", ErrBadSlot, id)
		}
		if st.refs.CompareAndSwap(cur, cur+int32(n)) {
			return nil
		}
	}
}

// SetOwner changes the session ReleaseOwner reclaims a borrowed slot for.
// The runtime takes an emitted slot over with NoOwner, and hands it back
// when the message could not be queued after all.
//
//insane:hotpath
func (m *Manager) SetOwner(id SlotID, owner Owner) {
	if p, idx, err := m.locate(id); err == nil {
		p.states[idx].owner.Store(int32(owner))
	}
}

// Release drops one reference; when the count reaches zero the slot returns
// to its pool's free ring.
//
//insane:hotpath
//insane:release resource=mem-slot
func (m *Manager) Release(id SlotID) error {
	p, idx, err := m.locate(id)
	if err != nil {
		return err
	}
	st := &p.states[idx]
	n := st.refs.Add(-1)
	if n < 0 {
		st.refs.Add(1) // undo; report misuse
		//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
		return fmt.Errorf("%w: double release of %v", ErrBadSlot, id)
	}
	if n == 0 {
		if b := st.budget.Swap(nil); b != nil {
			b.Uncharge()
		}
		st.owner.Store(int32(NoOwner))
		m.releases.Add(1)
		if !p.free.TryPush(uint32(idx)) && !p.pushFreeContended(uint32(idx)) {
			//lint:ignore insanevet/hotpathcheck cold error path, never taken steady-state
			return fmt.Errorf("mempool: free ring overflow for %v", id)
		}
	}
	return nil
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
// and every slot borrowed. The chunk's pointer and the committed count
// are published before its slots, so a popped slot always has its bytes
// and FreeSlots never reads above capacity.
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
	chunk := make([]byte, n*p.slotSize)
	p.chunks[first/chunkSlots].Store(&chunk)
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
			if Owner(st.owner.Load()) != owner {
				continue
			}
			// Drop all outstanding references at once.
			if refs := st.refs.Swap(0); refs > 0 {
				if b := st.budget.Swap(nil); b != nil {
					b.Uncharge()
				}
				st.owner.Store(int32(NoOwner))
				m.releases.Add(1)
				if !p.free.TryPush(uint32(idx)) {
					p.pushFreeContended(uint32(idx))
				}
				reclaimed++
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

// Stats returns a snapshot of cumulative counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Gets:     m.gets.Load(),
		Failures: m.fails.Load(),
		Releases: m.releases.Load(),
	}
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
	chunk := *p.chunks[idx/chunkSlots].Load()
	off := idx % chunkSlots * p.slotSize
	return chunk[off : off+p.slotSize : off+p.slotSize]
}
