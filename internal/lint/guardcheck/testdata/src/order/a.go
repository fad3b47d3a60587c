// Package order seeds lock-order and lock-exit violations against a
// stand-in of the runtime's techState: the mu→schedMu rule keys on
// mutex fields named mu and schedMu, matching internal/core's locking
// discipline.
package order

import "sync"

// techState mirrors the shape of core.techState.
type techState struct {
	mu      sync.Mutex
	schedMu sync.Mutex
	rw      sync.RWMutex
}

// Seeded violation 1: the inversion — mu while holding schedMu.
func inversion(st *techState) {
	st.schedMu.Lock()
	st.mu.Lock() // want `lock order is mu→schedMu`
	st.mu.Unlock()
	st.schedMu.Unlock()
}

// Seeded violation 2: a deferred unlock keeps schedMu held until
// return, so taking mu afterwards still inverts the order.
func inversionDeferred(st *techState) {
	st.schedMu.Lock()
	defer st.schedMu.Unlock()
	st.mu.Lock() // want `lock order is mu→schedMu`
	st.mu.Unlock()
}

// Seeded violation 3: a Lock that never unlocks.
func leak(st *techState) {
	st.mu.Lock() // want `no matching Unlock`
}

// Seeded violation 4: a read lock paired only with a write unlock.
func mismatchedRW(st *techState) {
	st.rw.RLock() // want `no matching RUnlock`
	st.rw.Unlock()
}

// Seeded violation 5: two owners of the same type still violate the
// global order (pollers deadlock pairwise).
func crossOwner(a, b *techState) {
	a.schedMu.Lock()
	b.mu.Lock() // want `lock order is mu→schedMu`
	b.mu.Unlock()
	a.schedMu.Unlock()
}

// The established order: mu first, then schedMu.
func correctOrder(st *techState) {
	st.mu.Lock()
	st.schedMu.Lock()
	st.schedMu.Unlock()
	st.mu.Unlock()
}

// Sequential acquisition is not nesting.
func sequential(st *techState) {
	st.schedMu.Lock()
	st.schedMu.Unlock()
	st.mu.Lock()
	st.mu.Unlock()
}

// Locks taken in one branch are not held in the sibling.
func branches(st *techState, cond bool) {
	if cond {
		st.schedMu.Lock()
		st.schedMu.Unlock()
	} else {
		st.mu.Lock()
		st.mu.Unlock()
	}
}

// Deferred unlocks satisfy the pairing rule.
func deferred(st *techState) {
	st.mu.Lock()
	defer st.mu.Unlock()
}

// Read locks pair with read unlocks.
func readLock(st *techState) {
	st.rw.RLock()
	defer st.rw.RUnlock()
}

// Seeded violation 6 (branch-merge regression): schedMu is locked in a
// branch with a deferred unlock, so it is still held when the branch
// falls through — the mu acquisition after the if inverts the order.
// The old scanner dropped branch-local locks at the brace and missed
// this.
func branchFallthrough(st *techState, cond bool) {
	if cond {
		st.schedMu.Lock()
		defer st.schedMu.Unlock()
	}
	st.mu.Lock() // want `lock order is mu→schedMu`
	st.mu.Unlock()
}

// A branch that always returns does not leak its locks into the
// fall-through: the deferred unlock runs before control could reach
// the statements after the if.
func branchReturns(st *techState, cond bool) {
	if cond {
		st.schedMu.Lock()
		defer st.schedMu.Unlock()
		return
	}
	st.mu.Lock()
	st.mu.Unlock()
}

// Seeded violation 7: an early return between Lock and Unlock leaks
// the lock on that path even though the pairing rule is satisfied.
func returnWhileHolding(st *techState, cond bool) {
	st.mu.Lock()
	if cond {
		return // want `return while still holding st\.mu`
	}
	st.mu.Unlock()
}

// Unlocking before the early return is clean.
func returnAfterUnlock(st *techState, cond bool) {
	st.mu.Lock()
	if cond {
		st.mu.Unlock()
		return
	}
	st.mu.Unlock()
}

// The suppression path: an explicit, reasoned directive waives the
// finding.
func suppressed(st *techState) {
	st.schedMu.Lock()
	//lint:ignore insanevet/guardcheck fixture proving the suppression path
	st.mu.Lock()
	st.mu.Unlock()
	st.schedMu.Unlock()
}
