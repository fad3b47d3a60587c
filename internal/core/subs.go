package core

import (
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// Peer is a statically configured remote INSANE runtime and the per-tech
// addresses of its NIC ports (heterogeneous edge nodes expose different
// subsets of technologies).
type Peer struct {
	Name string
	// Addrs maps each technology the peer supports to the IP of the
	// peer's port for that technology.
	Addrs map[model.Tech]netstack.IPv4
}

// hop is one remote subscriber of a channel: the peer, the technology it
// asked for in its SUB message, and — resolved once, when the SUB is
// applied — the plane a message takes to it from each local technology.
type hop struct {
	peer *Peer
	tech model.Tech
	via  [numTechs]plane // indexed by the sending stream's technology
}

// plane is everything sendToPeer needs to know about one destination.
type plane struct {
	target *techState
	dst    netstack.Endpoint
	dstMAC netstack.MAC // set where the target frames in user space
	// downgraded: the peer lacks the stream's technology and the message
	// leaves on a lower one; counted per send.
	downgraded bool
	// err fails every send: the peer has no address on any plane this host
	// can use, or no MAC binding on the one chosen.
	err error
}

// resolveHop chooses, for every local technology, the plane toward a peer
// that subscribed with tech: the stream's own technology when the peer has
// it, otherwise the one the peer asked for, otherwise the kernel plane.
func (r *Runtime) resolveHop(peer *Peer, tech model.Tech) hop {
	h := hop{peer: peer, tech: tech}
	kernel := r.techs[model.TechKernelUDP]
	for _, st := range r.techs {
		pl := plane{target: st}
		if _, ok := peer.Addrs[st.tech]; !ok {
			pl.downgraded = true
			if pl.target = r.techs[tech]; pl.target == nil {
				pl.target = kernel
			}
			if _, ok := peer.Addrs[pl.target.tech]; !ok {
				pl.target = kernel
			}
		}
		ip, ok := peer.Addrs[pl.target.tech]
		pl.dst = netstack.Endpoint{IP: ip, Port: TechPort(pl.target.tech)}
		switch {
		case !ok:
			pl.err = &peerUnreachableError{name: peer.Name}
		case pl.target.info.NeedsUserStack:
			pl.dstMAC, pl.err = r.cfg.Resolver.Resolve(ip)
		}
		h.via[st.tech] = pl
	}
	return h
}

// peerUnreachableError reports a peer that cannot be reached on any plane.
type peerUnreachableError struct{ name string }

func (e *peerUnreachableError) Error() string {
	return "core: peer " + e.name + " unreachable on any technology plane"
}

// handleControl applies a SUB/UNSUB message from a peer and publishes the
// result. A datagram it cannot attribute changes nothing.
//
//insane:coldpath control-plane SUB/UNSUB handling, off the data path
func (r *Runtime) handleControl(h header, src netstack.IPv4) {
	peer, ok := r.peerByIP[src]
	if !ok {
		r.warnf("control message from unknown peer %s", src)
		return
	}
	tech, err := techFromAux(h.aux)
	if err != nil {
		r.warnf("control message with bad tech from %s", peer.Name)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	hops := r.subs[h.channel]
	at := -1
	for i := range hops {
		if hops[i].peer == peer {
			at = i
			break
		}
	}
	switch {
	case h.kind == kindSub && at >= 0:
		hops[at] = r.resolveHop(peer, tech)
	case h.kind == kindSub:
		hops = append(hops, r.resolveHop(peer, tech))
	case at < 0:
		return // UNSUB for a subscription this runtime never had
	default:
		hops = append(hops[:at], hops[at+1:]...)
	}
	if len(hops) == 0 {
		delete(r.subs, h.channel)
	} else {
		r.subs[h.channel] = hops
	}
	r.publishLocked()
}
