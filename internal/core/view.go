// The published view (DESIGN.md §7): the one answer to "who is connected"
// the data path reads.

package core

import (
	"slices"

	"github.com/insane-mw/insane/internal/model"
)

// numTechs sizes the arrays indexed by model.Tech (ids start at 1).
const numTechs = int(model.TechRDMA) + 1

// view is an immutable snapshot of who is connected: per technology the TX
// lanes its pollers drain, per channel where a message goes. Readers load
// the pointer once and index; nothing they reach through it ever changes.
// draining says some lanes are a closed session's: a pass retires them.
type view struct {
	lanes    [numTechs][]*txLane
	routes   map[uint32]route
	draining bool
}

// route is where a message on one channel goes: the co-located sinks and
// the remote subscribers. A channel nobody listens on has the zero route.
type route struct {
	sinks []*SinkHandle
	hops  []hop
}

// publishLocked rebuilds the view whole from the sessions, sinks and
// subscriptions r.mu owns and swaps it in. Every change to any of them
// calls it before letting go of the lock: a session connecting or
// detaching, a lane created, a sink registered or unregistered, a SUB or
// UNSUB applied, a closed session's lanes retired. A reader that loaded the
// previous view keeps a consistent, momentarily stale one (DESIGN.md §7).
func (r *Runtime) publishLocked() {
	v := &view{
		routes:   make(map[uint32]route, len(r.sinks)+len(r.subs)),
		draining: len(r.draining) > 0,
	}
	for _, c := range slices.Concat(r.conns, r.draining) {
		for tech, l := range c.lanes {
			if l != nil {
				v.lanes[tech] = append(v.lanes[tech], l)
			}
		}
	}
	for ch, sinks := range r.sinks {
		v.routes[ch] = route{sinks: append([]*SinkHandle(nil), sinks...)}
	}
	for ch, hops := range r.subs {
		v.routes[ch] = route{sinks: v.routes[ch].sinks, hops: append([]hop(nil), hops...)}
	}
	r.view.Store(v)
}

// retireDrained drops the closed sessions whose lanes are empty and
// publishes the view without them. Once the runtime has stopped it first
// reclaims what the lanes hold, and returns how many tokens that was.
//
//insane:coldpath session teardown: a pass calls it only while the view carries a closed session's lanes
func (r *Runtime) retireDrained() (reclaimed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.draining)
	r.draining = slices.DeleteFunc(r.draining, func(c *ClientConn) bool {
		if r.stopped.Load() {
			reclaimed += r.reclaimLanes(c.lanes)
		}
		return !c.lanes.held()
	})
	if len(r.draining) < n {
		r.publishLocked()
	}
	return reclaimed
}
