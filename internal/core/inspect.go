package core

import (
	"fmt"
	"sort"
	"strings"
)

// Inspect renders a human-readable snapshot of the runtime's state:
// technologies, polling threads, sessions, channel subscriptions (local
// and remote), memory pools and traffic counters. Operators of a
// Network-Acceleration-as-a-Service deployment (§8) need exactly this
// view; cmd/lunar-demo and tests use it too.
func (r *Runtime) Inspect() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime %q (testbed %s)\n", r.name, r.tb.Name)

	fmt.Fprintf(&b, "  datapaths (%d polling threads):\n", len(r.pollers))
	for _, tech := range r.Techs() {
		st := r.techs[tech]
		es := st.ep.Stats()
		fmt.Fprintf(&b, "    %-10s %s  tx=%d rx=%d drops=%d\n",
			tech, st.local, es.TxPackets, es.RxPackets, es.Malformed+es.RNRDrops)
	}

	r.mu.RLock()
	sessions, warned, suppressed := len(r.conns), len(r.warned), r.suppressed
	r.mu.RUnlock()
	fmt.Fprintf(&b, "  sessions: %d\n", sessions)

	routes := r.view.Load().routes
	channels := make([]int, 0, len(routes))
	for ch := range routes {
		channels = append(channels, int(ch))
	}
	sort.Ints(channels)
	for _, ch := range channels {
		route := routes[uint32(ch)]
		if len(route.sinks) > 0 {
			fmt.Fprintf(&b, "    channel %d: %d local sinks\n", ch, len(route.sinks))
		}
		if len(route.hops) > 0 {
			names := make([]string, len(route.hops))
			for i, h := range route.hops {
				names[i] = fmt.Sprintf("%s(%s)", h.peer.Name, h.tech)
			}
			sort.Strings(names)
			fmt.Fprintf(&b, "    channel %d: remote subscribers %s\n", ch, strings.Join(names, ", "))
		}
	}

	ms := r.mm.Stats()
	fmt.Fprintf(&b, "  memory pools: free=%v committed=%v gets=%d releases=%d failures=%d\n",
		r.mm.FreeSlots(), r.mm.CommittedSlots(), ms.Gets, ms.Releases, ms.Failures)

	s := r.Stats()
	fmt.Fprintf(&b, "  traffic: tx=%d rx=%d local=%d nosink=%d ringfull=%d downgrades=%d\n",
		s.TxMessages, s.RxMessages, s.LocalDeliveries, s.NoSinkDrops,
		s.RingFullDrops, s.TechDowngrades)
	if warned > 0 {
		fmt.Fprintf(&b, "  warnings: %d (%d more suppressed)\n", warned, suppressed)
	}
	return b.String()
}
