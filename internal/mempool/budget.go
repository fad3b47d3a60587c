// Per-tenant slot accounting. A Budget is the memory-manager half of the
// runtime's tenant isolation (DESIGN.md §12): every slot borrowed through
// GetBudget is charged against the tenant's budget and uncharged when the
// slot fully recycles, so one tenant exhausting its quota cannot starve
// the shared pools for everyone else. Charging is a single atomic add —
// the partitioning is pure accounting, the backing memory stays one
// shared pool per size class.
package mempool

import (
	"errors"
	"sync/atomic"
)

// ErrQuota is returned by GetBudget when the tenant's slot budget is
// exhausted. A static sentinel: the borrow path is hot and must not
// format an error per rejection. Callers treat it like ErrExhausted —
// release slots (or wait for the consumer side to) and retry — except
// the pressure is the tenant's own, not the node's.
var ErrQuota = errors.New("mempool: tenant slot quota exhausted")

// Budget caps how many slots one tenant may hold at once. The zero limit
// disables the cap but keeps the usage gauge running, so exporters can
// show per-tenant occupancy even for unlimited tenants. All methods are
// safe for concurrent use.
//
//insane:shared
type Budget struct {
	used  atomic.Int64 //insane:guardedby atomic
	limit int64        //insane:guardedby immutable after=NewBudget
}

// NewBudget returns a budget allowing up to limit concurrently held
// slots; limit <= 0 means unlimited (gauge only).
func NewBudget(limit int) *Budget {
	b := &Budget{}
	if limit > 0 {
		b.limit = int64(limit)
	}
	return b
}

// TryCharge reserves one slot against the budget, reporting false when
// the cap is reached. The optimistic add-then-undo keeps the common case
// one uncontended atomic; a transient overshoot between the add and the
// undo only makes concurrent chargers fail slightly early, never lets
// usage exceed the limit.
//
//insane:hotpath
//insane:acquire resource=tenant-mem on=true
func (b *Budget) TryCharge() bool {
	used := b.used.Add(1)
	if b.limit > 0 && used > b.limit {
		b.used.Add(-1)
		return false
	}
	return true
}

// Uncharge returns one reserved slot to the budget.
//
//insane:hotpath
//insane:release resource=tenant-mem
func (b *Budget) Uncharge() { b.used.Add(-1) }

// Used reports the slots currently charged.
func (b *Budget) Used() int64 { return b.used.Load() }

// Limit reports the configured cap (0 = unlimited).
func (b *Budget) Limit() int64 { return b.limit }
