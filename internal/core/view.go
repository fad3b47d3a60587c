// The published view (DESIGN.md §7): the one answer to "who is connected"
// the data path reads.

package core

import "github.com/insane-mw/insane/internal/model"

// numTechs sizes the arrays indexed by model.Tech (ids start at 1).
const numTechs = int(model.TechRDMA) + 1

// view is an immutable snapshot of who is connected: per technology the TX
// lanes its pollers drain, per channel where a message goes. Readers load
// the pointer once and index; nothing they reach through it ever changes.
type view struct {
	lanes  [numTechs][]*txLane
	routes map[uint32]route
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
// UNSUB applied. A reader that loaded the previous view keeps a consistent,
// momentarily stale one; teardown waits such readers out (dropConn).
func (r *Runtime) publishLocked() {
	v := &view{routes: make(map[uint32]route, len(r.sinks)+len(r.subs))}
	for _, c := range r.conns {
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
