package order

// The cases below are judged by the held-lock state at each point of
// the path: what every arm released is released, what one arm kept is
// may-held, a TryLock holds its lock in the arm that saw it succeed,
// and an immediately invoked literal runs under the locks held where
// it is called.

// Both arms release mu: nothing is held at the return.
func releasedInBothArms(st *techState, c bool) int {
	st.mu.Lock()
	if c {
		st.mu.Unlock()
	} else {
		st.mu.Unlock()
	}
	return 1
}

// Both arms release schedMu: taking mu afterwards is sequential.
func schedReleasedInBothArms(st *techState, c bool) {
	st.schedMu.Lock()
	if c {
		st.schedMu.Unlock()
	} else {
		st.schedMu.Unlock()
	}
	st.mu.Lock()
	st.mu.Unlock()
}

// A successful TryLock holds schedMu in its arm.
func tryLockInversion(st *techState) {
	if st.schedMu.TryLock() {
		st.mu.Lock() // want `st\.mu\.Lock\(\) while holding st\.schedMu: lock order is mu→schedMu`
		st.mu.Unlock()
		st.schedMu.Unlock()
	}
}

// The literal runs here, with schedMu held.
func invokedLiteralInversion(st *techState) {
	st.schedMu.Lock()
	func() {
		st.mu.Lock() // want `st\.mu\.Lock\(\) while holding st\.schedMu: lock order is mu→schedMu`
		st.mu.Unlock()
	}()
	st.schedMu.Unlock()
}

// A literal judges only the locks it takes: mu, held around it, is its
// caller's to release.
func literalLeavesOuterLock(st *techState) {
	st.mu.Lock()
	func() {
		st.schedMu.Lock()
		st.schedMu.Unlock()
	}()
	st.mu.Unlock()
}

// The path with c false falls off the end holding mu.
func unlockedOnOnePath(st *techState, c bool) {
	st.mu.Lock() // want `st\.mu\.Lock\(\) has no matching Unlock on some path to the end of the function`
	if c {
		st.mu.Unlock()
	}
}
