package sm

import "testing"

// The cases below pin the flow engine's single answer at the points
// where the per-rule walkers used to disagree (internal/lint/flow).

// A select's communication clause is a statement like any other: a
// send there is a send.
func sendInSelect(ch chan int) {
	close(ch)
	select {
	case ch <- 1: // want `send on ch after close`
	default:
	}
}

// t.Fatal ends the path: the close in the failing branch is not seen
// by the code after it (and would not be either way — state forked at
// a branch never merges back — but nothing after a terminator is
// walked at all).
func fatalEndsPath(t *testing.T, ch chan int, bad bool) {
	if bad {
		close(ch)
		t.Fatal("bad state")
		close(ch)
	}
	close(ch)
}
