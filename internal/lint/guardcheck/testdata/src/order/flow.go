package order

import "testing"

// The cases below pin the flow engine's single answer at the points
// where the per-rule walkers used to disagree (internal/lint/flow).

// A fallthrough carries its state into the next clause: schedMu,
// locked in case 1, is still held where case 2 takes mu.
func fallthroughCarries(st *techState, n int) {
	switch n {
	case 1:
		st.schedMu.Lock()
		defer st.schedMu.Unlock()
		fallthrough
	case 2:
		st.mu.Lock() // want `lock order is mu→schedMu`
		st.mu.Unlock()
	}
}

// t.Fatal ends the path exactly like panic: the lock the failing
// branch holds never reaches the code after it.
func fatalEndsPath(t *testing.T, st *techState, bad bool) {
	if bad {
		st.schedMu.Lock()
		defer st.schedMu.Unlock()
		t.Fatal("bad state")
	}
	st.mu.Lock()
	st.mu.Unlock()
}

// A break leaves the loop with the locks held at it.
func breakCarries(st *techState, done func() bool) {
	for {
		st.schedMu.Lock()
		if done() {
			break
		}
		st.schedMu.Unlock()
	}
	st.mu.Lock() // want `lock order is mu→schedMu`
	st.mu.Unlock()
	st.schedMu.Unlock()
}
