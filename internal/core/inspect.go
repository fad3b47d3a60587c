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
	fmt.Fprintf(&b, "  sessions: %d\n", len(r.conns))
	channels := make([]int, 0, len(r.sinks))
	for ch := range r.sinks {
		channels = append(channels, int(ch))
	}
	sort.Ints(channels)
	for _, ch := range channels {
		fmt.Fprintf(&b, "    channel %d: %d local sinks\n", ch, len(r.sinks[uint32(ch)]))
	}
	r.mu.RUnlock()

	r.subs.mu.RLock()
	remotes := make([]int, 0, len(r.subs.byChannel))
	for ch := range r.subs.byChannel {
		remotes = append(remotes, int(ch))
	}
	sort.Ints(remotes)
	for _, ch := range remotes {
		m := r.subs.byChannel[uint32(ch)]
		names := make([]string, 0, len(m))
		for name, sub := range m {
			names = append(names, fmt.Sprintf("%s(%s)", name, sub.tech))
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "    channel %d: remote subscribers %s\n", ch, strings.Join(names, ", "))
	}
	r.subs.mu.RUnlock()

	free := r.mm.FreeSlots()
	ms := r.mm.Stats()
	fmt.Fprintf(&b, "  memory pools: free=%v gets=%d releases=%d failures=%d\n",
		free, ms.Gets, ms.Releases, ms.Failures)

	s := r.Stats()
	fmt.Fprintf(&b, "  traffic: tx=%d rx=%d local=%d nosink=%d ringfull=%d downgrades=%d\n",
		s.TxMessages, s.RxMessages, s.LocalDeliveries, s.NoSinkDrops,
		s.RingFullDrops, s.TechDowngrades)
	if w := len(r.Warnings()); w > 0 {
		fmt.Fprintf(&b, "  warnings: %d\n", w)
	}
	return b.String()
}
