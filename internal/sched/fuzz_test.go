package sched

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// FuzzGCL checks the gate arithmetic on every list Validate accepts. The
// input is a class c, a big-endian instant and the list, a run of up to 8
// entries of 9 bytes: a big-endian duration in nanoseconds and a gate mask.
// (The cap keeps inputs short: the engine minimizes each new input in time
// quadratic in its length, and stops fuzzing while it does.) For one held
// time-sensitive head of class c at now, NextEvent is zero exactly when c's
// gate is open at now, Never exactly when the list never opens c, and
// otherwise the first instant after now at which c's gate is open.
func FuzzGCL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		class, rawNow := data[0], binary.BigEndian.Uint64(data[1:9])
		var g GCL
		for list := data[9:]; len(list) >= 9 && len(g) < 8; list = list[9:] {
			g = append(g, GCLEntry{Duration: time.Duration(binary.BigEndian.Uint64(list)), Gates: list[8]})
		}
		e, err := NewEgress[item](g, nil)
		if g.Validate() != nil {
			if err == nil {
				t.Fatalf("NewEgress accepted a list Validate rejects: %v", g)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewEgress rejected a list Validate accepts: %v", err)
		}
		// Clock readings count up from 0, and any of them plus a cycle is
		// a valid instant.
		now := timebase.VTime(rawNow % uint64(math.MaxInt64-g.Cycle()+1))
		opens := false
		for _, en := range g {
			opens = opens || en.Gates&classBit(class) != 0
		}
		enqueue(e, pkt(class, now), now)
		next := e.NextEvent(now)
		switch open := e.GateOpenAt(class, now); {
		case open || next == 0:
			if !open || next != 0 {
				t.Fatalf("class %d at %d: gate open %v, NextEvent %v", class, now, open, next)
			}
		case !opens || next == Never:
			if opens || next != Never {
				t.Fatalf("class %d: the list opens it %v, NextEvent %v", class, opens, next)
			}
		case next <= now || !e.GateOpenAt(class, next) || e.GateOpenAt(class, next-1):
			t.Fatalf("class %d at %d: NextEvent %v is not the first later instant its gate is open", class, now, next)
		}
	})
}
