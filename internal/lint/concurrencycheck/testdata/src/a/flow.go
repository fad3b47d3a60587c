package a

import "testing"

// t.Fatal leaves a loop like panic and return do (callutil.NoReturn is
// the one list of calls that never return): the loop has an exit, just
// not one a stop signal guards.
func startFatal(t *testing.T, work func() bool) {
	go func() { // want `has an infinite loop whose exits are not guarded by a stop signal`
		for {
			if work() {
				t.Fatal("gave up")
			}
		}
	}()
}
