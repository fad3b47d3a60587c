package core

import (
	"github.com/insane-mw/insane/internal/ringbuf"
)

// txRingDepth bounds each per-technology session TX ring.
const txRingDepth = 1024

// txLane is the per-(session,technology) token queue between Emit and the
// technology's polling threads: one multi-producer/multi-consumer ring,
// whatever the number of sources feeding it or pollers draining it. One
// ring means one order, so per-source FIFO holds by construction
// (DESIGN.md §11 has the measurement behind not electing a cheaper
// single-producer ring).
//
//insane:shared
type txLane struct {
	ring *ringbuf.MPMC[txToken] //insane:guardedby immutable after=newTxLane
}

// laneSet holds a session's lanes, indexed by technology; nil where the
// session has no source.
type laneSet [numTechs]*txLane

// held reports whether a lane holds a token.
func (ls *laneSet) held() bool {
	for _, l := range ls {
		if l != nil && l.ring.Len() > 0 {
			return true
		}
	}
	return false
}

func newTxLane() (*txLane, error) {
	r, err := ringbuf.NewMPMC[txToken](txRingDepth)
	if err != nil {
		return nil, err
	}
	return &txLane{ring: r}, nil
}

// push appends one token, reporting whether there was room. False means
// backpressure: the caller keeps buffer ownership and may retry.
//
// On success the token — and the tenant TX charge and slot reference it
// carries — belongs to the poller that drains the lane.
//
//insane:hotpath
//insane:transfer resource=tenant-tx on=true
//insane:transfer resource=mem-slot on=true
func (l *txLane) push(tok txToken) bool { return l.ring.TryPush(tok) }

// pop drains one buffered token. It is the teardown-side counterpart of
// push: the caller takes over the tenant TX charge and slot reference
// the token carries. Only a stopped runtime reclaims (reclaimLanes); a
// poller finishing its last pass pops the same ring, and pops are exclusive.
//
//insane:acquire resource=tenant-tx on=true
//insane:acquire resource=mem-slot on=true
func (l *txLane) pop() (txToken, bool) { return l.ring.TryPop() }
