package a

// The cases below pin the flow engine's single answer at the points
// where the per-rule walkers used to disagree (internal/lint/flow).

// A fallthrough carries its state into the next clause: entered from
// case 1 the lock is held, entered on its own it is not, and the
// must-hold join keeps only what both entries agree on.
func (s *S) FallthroughJoins(n int) {
	switch n {
	case 1:
		s.mu.Lock() // want `s\.mu\.Lock\(\) has no matching Unlock on some path to the end of the function`
		fallthrough
	case 2:
		s.count++ // want `write to a\.S\.count \(//insane:guardedby mu=mu\) without holding s\.mu for writing`
	}
}

// FallthroughHeld takes the lock before the switch, so both ways into
// case 2 hold it.
func (s *S) FallthroughHeld(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch n {
	case 1:
		s.count = 0
		fallthrough
	case 2:
		s.count++
	}
}

// The only way out of this loop is the break, taken with the lock
// held: the code after the loop holds it.
func (s *S) BreakCarries(done func() bool) {
	for {
		s.mu.Lock()
		if done() {
			break
		}
		s.mu.Unlock()
	}
	s.count++
	s.mu.Unlock()
}

// A break out of a switch arm rejoins after the switch like any other
// arm: the arm that unlocked early means the lock is no longer held.
func (s *S) BreakFromSwitch(n int) {
	s.mu.Lock() // want `s\.mu\.Lock\(\) has no matching Unlock on some path to the end of the function`
	switch n {
	case 1:
		s.mu.Unlock()
		break
	default:
	}
	s.count++ // want `write to a\.S\.count \(//insane:guardedby mu=mu\) without holding s\.mu for writing`
}

// A lap that released the lock leaves through the loop head like the
// loop's entry state: after the loop the lock may not be held.
func (s *S) LapReleases(n int) {
	s.mu.Lock() // want `s\.mu\.Lock\(\) has no matching Unlock on some path to the end of the function`
	for i := 0; i < n; i++ {
		s.mu.Unlock()
	}
	s.count++ // want `write to a\.S\.count \(//insane:guardedby mu=mu\) without holding s\.mu for writing`
}
