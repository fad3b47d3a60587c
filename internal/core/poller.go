package core

import (
	"runtime"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// Idle policy (DESIGN.md, "Idle policy"): a poller that finds no work
// parks on its doorbell and is woken by the event that brings work — an
// Emit, a frame queued on its port — never by a timer ("threads are
// automatically paused when idle", §5.3). The one timed wait left is
// toward a far 802.1Qbv gate, below.

// gateSpinHorizon bounds the busy-wait a poller runs up to the next
// 802.1Qbv gate opening. Go timers on a parked process fire with
// roughly millisecond slop — far wider than a 50µs gate window — so a
// timer-paced poller misses open windows whole cycles at a time and a
// quiet TSN tenant's tail collapses to milliseconds. Inside this horizon
// the poller yields instead of sleeping, hitting the gate edge with
// scheduler-quantum precision; waits beyond it (parked packets behind a
// long-closed gate) still sleep and leave the CPU alone.
const gateSpinHorizon = time.Millisecond

// handoffYields is how many times a poller whose pass moved work, and a
// consumer that found its sink empty, give up the processor and look again
// before they block. A goroutine woken by a channel send runs next on the
// waker's processor, so a yield hands the processor to the consumer the
// dispatch just woke; its next Emit then finds the poller not yet parked and
// needs no kick. It is a yield, not a spin: 2 is the measured value
// (DESIGN.md §15), and a longer linger cost more CPU than it saved.
const handoffYields = 2

// pollLoop is the body of one polling thread: poll while there is work;
// after the work runs out, yield and re-poll up to handoffYields times,
// then arm the doorbell (parked), poll once more, and only then block. A
// ringer publishes its work before it reads parked and the poller sets
// parked before it polls, so either the ringer sees the flag and kicks, or
// the re-poll sees the work: no wake is lost.
//
//insane:hotpath allow=block
func (r *Runtime) pollLoop(p *poller) {
	defer r.wg.Done()
	// One reusable timer for the sleep toward a far gate; time.After
	// would allocate a timer (and a channel) per sleep.
	//lint:ignore insanevet/hotpathcheck one-time timer allocation at poller startup
	timer := time.NewTimer(gateSpinHorizon)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	// linger is the yields left before the poller arms its doorbell: reset
	// by every pass that moves work, spent by the empty passes after it.
	linger := 0
	//insane:bounded by=poller event loop: lives for the runtime, each iteration is one bounded pass
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		work, gated, nextGate := r.pass(p)
		// Packets waiting for their 802.1Qbv gate bound the sleep. Timer
		// wakeups are too coarse to hit a gate window reliably: spin to a
		// near edge, sleep toward a far one.
		var gateWait time.Duration
		if gated && nextGate != 0 {
			gateWait = nextGate.Sub(r.clock.Now())
		}
		if work > 0 {
			linger = handoffYields
		}
		if linger > 0 || (gated && gateWait <= gateSpinHorizon) {
			if p.parked.Load() {
				p.parked.Store(false)
			}
			if work == 0 {
				// Yield and re-poll: to the consumer the last dispatch woke,
				// or toward a near gate edge.
				linger = max(linger-1, 0)
				runtime.Gosched()
			}
			continue
		}
		if !p.parked.Load() {
			p.parked.Store(true)
			continue
		}
		p.shard.Inc(telemetry.CtrPollerParks)
		var gateC <-chan time.Time
		if gated {
			timer.Reset(gateWait - gateSpinHorizon)
			gateC = timer.C
		}
		select {
		case <-p.stop:
			return
		case why := <-p.kick:
			// Drain the still-armed timer so the next Reset starts clean.
			if gated && !timer.Stop() {
				<-timer.C
			}
			p.shard.Inc(why)
		case <-gateC:
			p.shard.Inc(telemetry.CtrPollerWakesGateTimer)
		}
		p.parked.Store(false)
	}
}

// pass is one polling iteration over the poller's technologies: drain the
// TX lanes through the egress schedulers, poll the port, and look at what
// the schedulers still hold. It reports the messages moved, whether held
// tokens wait for a gate, and the earliest gate opening that would release
// one (zero: one is already eligible); OpenStream refuses a stream whose
// gate never opens. A pass that finds no work reads the view, each lane's
// length, each scheduler's count and each port's queue length, and nothing
// else: no clock, no scheduler lock, no endpoint lock (DESIGN.md §15).
// While the view carries a closed session's lanes it retires them.
func (r *Runtime) pass(p *poller) (work int, gated bool, nextGate timebase.VTime) {
	//insane:bounded by=one entry per registered technology, fixed at runtime construction
	for _, st := range p.states {
		work += r.drainTX(p, st)
		work += r.pollRX(p, st)
		if st.egress.Pending() == 0 {
			continue
		}
		// Earliest gate opening across the technologies; zero, from any of
		// them, means something held is already eligible. Another poller of
		// the technology may have emptied it since the count was read: its
		// NextEvent is zero then, and the cost is one more pass.
		st.schedMu.Lock()
		e := st.egress.NextEvent(r.clock.Now())
		st.schedMu.Unlock()
		if !gated || (nextGate != 0 && (e == 0 || e.Before(nextGate))) {
			nextGate = e
		}
		gated = true
	}
	if work == 0 {
		p.shard.Inc(telemetry.CtrPollerIdlePasses)
	}
	if r.view.Load().draining {
		r.retireDrained()
	}
	return work, gated, nextGate
}

// ring wakes the poller if it is parked, or armed to park; a running
// poller costs the ringer one atomic load. why is the wake counter the
// poller records.
//
//insane:hotpath
func (p *poller) ring(why telemetry.CounterID) {
	if !p.parked.Load() {
		return
	}
	select {
	case p.kick <- why:
	default:
	}
}

// drainTX moves tokens from the session rings through the egress scheduler
// and out of the datapath. Returns the number of packets processed.
func (r *Runtime) drainTX(p *poller, st *techState) int {
	// 1. Pull tokens from every session's ring for this technology, in
	// bursts: one sequence-aware batch pop per ring visit instead of one
	// CAS per token (opportunistic batching, §6.2). An empty lane costs
	// its length and nothing else.
	pulled := 0
	//insane:bounded by=one lane per session in the published view, live or draining
	for _, l := range r.view.Load().lanes[st.tech] {
		// Lane occupancy, sampled before the drain: queue-depth visibility
		// for the exporter without a per-token cost. Empty lanes are not
		// recorded — an idle poller would otherwise bury the distribution
		// under zeros.
		occ := l.ring.Len()
		if occ == 0 {
			continue
		}
		p.shard.Observe(telemetry.HistTxRingOccupancy, int64(occ))
		//insane:bounded by=pulled strictly increases per iteration up to the constant burst
		for pulled < burst {
			n := l.ring.PopBatch(p.toks[pulled:burst])
			if n == 0 {
				break
			}
			pulled += n
		}
	}
	// Nothing pulled and nothing held: no clock, no scheduler lock.
	if pulled == 0 && st.egress.Pending() == 0 {
		return 0
	}

	// 2. File the pulled tokens with the scheduler, stamping a sampled
	// token's pickup, and dequeue what it releases at the current time, in
	// one schedMu section. The clock is read once per pass: it is the
	// pickup time of a sampled token, the scheduler arrival time of every
	// token and gates the dequeue. No slot header is touched here: dispatch
	// does, once it has proven the slot live.
	now := r.clock.Now()
	if pulled > 0 {
		p.shard.Add(telemetry.CtrSchedEnqueues, uint64(pulled))
	}
	batch, waits := p.batch, p.waits
	st.schedMu.Lock()
	//insane:bounded by=pulled <= burst, the per-poller burst buffer
	for i := 0; i < pulled; i++ {
		tok := &p.toks[i]
		if tok.sampled {
			tok.enqT = now
		}
		st.egress.Enqueue(*tok, tok.timing == qos.TimingSensitive, tok.src.ten.index, tok.class, int(tok.msgLen), now)
	}
	n := st.egress.Dequeue(batch, waits, now)
	st.schedMu.Unlock()
	if n == 0 {
		return pulled
	}
	p.shard.Observe(telemetry.HistDispatchBatch, int64(n))

	// 3. Dispatch the released messages.
	r.dispatch(p, st, batch[:n], waits[:n])
	return pulled + n
}

// dispatch fans a batch of released messages out to local sinks and remote
// peers, records outcomes and settles each token: its slot reference, its
// tenant's in-flight charge and its source's count of queued messages.
// waits[i] is what batch[i] waited in the scheduler on the pass clock:
// virtual latency of the Send stage. This is the one place an outgoing
// message's slot is looked up, so it is also where a slot that died since
// Emit — released, or released and borrowed again by another session — is
// found out, before its header is read or written.
//
// The token's slot reference is handed over, not taken and dropped: with no
// remote peer it becomes the first local sink's, and the slot is not
// touched again once deliver has it. With a peer the token keeps it across
// the sends and releases it after them.
func (r *Runtime) dispatch(p *poller, st *techState, batch []txToken, waits []time.Duration) {
	routes := r.view.Load().routes
	dispatched, delivered := 0, 0
	//insane:bounded by=batch is the poller's dequeue buffer, burst long
	for i := range batch {
		tok := &batch[i]
		route := routes[tok.channel]
		sinks := route.sinks
		// One reference per local sink: the token's own is the first
		// sink's when it hands it over.
		handover := len(route.hops) == 0 && len(sinks) > 0
		refs := len(sinks)
		if handover {
			refs--
		}
		buf, err := r.mm.Buf(tok.slot, mempool.NoOwner)
		if err == nil && refs > 0 {
			err = r.mm.AddRef(tok.slot, refs)
		}
		if err != nil {
			// The slot is not the runtime's (it was released behind the
			// runtime's back, and may be another session's by now):
			// nothing to send, and its header is not ours to touch. The
			// token is done traveling either way, and the discard is
			// counted like dropConn's reclaim of a token it finds still
			// queued.
			tok.settle()
			p.shard.Inc(telemetry.CtrTxReclaims)
			tok.src.recordOutcome(Outcome{Seq: tok.seq, Err: err})
			continue
		}
		dispatched++
		h := r.mm.Header(tok.slot)
		if tok.sampled {
			p.shard.Observe(telemetry.HistEmitPickup, int64(tok.enqT.Sub(h.AdmitT)))
			p.shard.Observe(telemetry.HistSchedDwell, int64(r.clock.Now().Sub(tok.enqT)))
		}
		// The queued path's Send-stage charges, like the IPC hop: the
		// scheduling decision and the wait behind it.
		h.Breakdown.Send += r.rc.Sched.Latency(int(tok.msgLen), r.tb) + waits[i]

		// Local sinks first: co-located source/sink pairs communicate
		// through shared memory directly (§5.1).
		if len(sinks) > 0 {
			h.Len = uint32(tok.msgLen - HeaderLen)
			h.Stamps = 0
			if tok.sampled {
				h.Stamps = uint8(stampsLocal)
			}
			delivered += r.deliver(p.shard, tok.slot, h, sinks)
		}

		// Remote peers that subscribed to the channel, each over the plane
		// resolved for this technology when its SUB was applied.
		sent := 0
		var sendErr error
		//insane:bounded by=one entry per subscribed peer, fixed by the cluster configuration
		for hop := range route.hops {
			if err := r.sendToPeer(p, st, tok, h, buf, &route.hops[hop].via[st.tech]); err != nil {
				sendErr = err
				continue
			}
			sent++
		}
		tok.src.recordOutcome(Outcome{
			Seq:         tok.seq,
			LocalSinks:  len(sinks),
			RemotePeers: sent,
			Err:         sendErr,
		})
		if sent > 0 {
			p.shard.Add(telemetry.CtrTxMessages, uint64(sent))
		}
		// The message left the scheduler and is where it was going.
		tok.settle()
		if !handover {
			_ = r.mm.Release(tok.slot)
		}
	}
	if dispatched > 0 {
		p.shard.Add(telemetry.CtrDispatches, uint64(dispatched))
	}
	if delivered > 0 {
		p.shard.Add(telemetry.CtrLocalDeliveries, uint64(delivered))
	}
}

// sendToPeer transmits one message to one subscribed peer over the plane
// its subscription resolved to (resolveHop). A send on a lower technology
// than the stream's is counted as a downgrade; a peer with no usable plane
// fails every send with the same error. h is the message's header, read
// for the clock the packet starts from. A sampled message times the packet
// processing engine (stage_processing) and, once the endpoint has taken
// it, closes stage_send.
func (r *Runtime) sendToPeer(p *poller, st *techState, tok *txToken, h *mempool.Header, buf []byte, via *plane) error {
	if via.downgraded {
		p.shard.Inc(telemetry.CtrTechDowngrades)
	}
	if via.err != nil {
		return via.err
	}
	target := via.target

	// Per-peer packet: charges and framing are destination-specific while
	// the slot bytes are shared (the wire copies on Transmit). It lives in
	// the poller's scratch, not on the heap: every endpoint Send is
	// synchronous and the fabric copies frame bytes, so the scratch is free
	// again when Send returns.
	out := &p.sendPkt
	*out = datapath.Packet{
		Slot:      tok.slot,
		Buf:       buf,
		Off:       headroomOffset,
		Len:       int(tok.msgLen),
		Src:       st.local,
		Breakdown: h.Breakdown,
	}

	if target.info.NeedsUserStack {
		// Packet processing engine: frame in place using the slot
		// headroom (§5.3).
		var t0 timebase.VTime
		if tok.sampled {
			t0 = r.clock.Now()
		}
		out.Charge(&r.rc.NetstackTx, out.Len, 1, r.tb)
		frameLen, err := netstack.EncodeUDP(out.Buf, netstack.FrameMeta{
			SrcMAC:       target.port.MAC(),
			DstMAC:       via.dstMAC,
			Src:          target.local,
			Dst:          via.dst,
			TrafficClass: tok.class,
		}, out.Len, target.port.MTU())
		if err != nil {
			return err
		}
		out.Off = 0
		out.Len = frameLen
		out.Framed = true
		if tok.sampled {
			p.shard.Observe(telemetry.HistStageProcessing, int64(r.clock.Now().Sub(t0)))
		}
	}

	p.sendVec[0] = out
	target.mu.Lock()
	_, err := target.ep.Send(p.sendVec[:], via.dst)
	target.mu.Unlock()
	if tok.sampled && err == nil {
		p.shard.Observe(telemetry.HistStageSend, int64(r.clock.Now().Sub(h.AdmitT)))
	}
	return err
}

// pollRX drains one technology's receive path in two halves: takeRX under
// the endpoint lock, then deliverRX after it. An empty port costs the length
// of its RX queue: the endpoint lock is taken only when a frame waits.
func (r *Runtime) pollRX(p *poller, st *techState) int {
	if st.port.Queued() == 0 {
		return 0
	}
	n := r.takeRX(p, st)
	r.deliverRX(p, n)
	return n
}

// takeRX polls the endpoint into p.rxPkts and, still under st.mu, admits
// each packet (admitRX) into p.rxHdrs: st.mu serializes the polls, so SUB
// and UNSUB apply in arrival order however many pollers share the endpoint.
// It returns the packets polled.
func (r *Runtime) takeRX(p *poller, st *techState) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n, err := st.ep.Poll(p.rxPkts)
	if err != nil {
		return 0
	}
	//insane:bounded by=n <= len(p.rxPkts), the per-poller RX vector of one burst
	for i := 0; i < n; i++ {
		p.rxHdrs[i] = r.admitRX(p, st, &p.rxPkts[i])
	}
	return n
}

// admitRX decodes one inbound packet, which it releases unless it is data:
// a malformed one is counted and a control message applied. It returns the
// packet's header, or the zero header when the packet is done with.
func (r *Runtime) admitRX(p *poller, st *techState, pkt *datapath.Packet) header {
	if pkt.Framed {
		// Packet processing engine, receive side.
		pkt.Charge(&r.rc.NetstackRx, pkt.Len, 1, r.tb)
		meta, payload, err := netstack.DecodeUDP(pkt.Bytes())
		if err != nil || meta.Dst.Port != st.local.Port {
			p.shard.Inc(telemetry.CtrRxMalformedDrops)
			_ = r.mm.Release(pkt.Slot)
			return header{}
		}
		pkt.Src, pkt.Dst = meta.Src, meta.Dst
		pkt.Off += netstack.HeadersLen
		pkt.Len = len(payload)
		pkt.Framed = false
	}

	h, err := decodeHeader(pkt.Bytes())
	if err != nil {
		p.shard.Inc(telemetry.CtrRxMalformedDrops)
		_ = r.mm.Release(pkt.Slot)
		return header{}
	}
	if h.kind != kindData {
		r.handleControl(h, pkt.Src.IP)
		_ = r.mm.Release(pkt.Slot)
		return header{}
	}
	return h
}

// deliverRX hands the data messages takeRX kept in the first n packets of
// p.rxPkts to their channels' local sinks.
func (r *Runtime) deliverRX(p *poller, n int) {
	//insane:bounded by=n <= len(p.rxPkts), the per-poller RX vector of one burst
	for i := 0; i < n; i++ {
		if h := &p.rxHdrs[i]; h.kind == kindData {
			r.receiveData(p, &p.rxPkts[i], h)
		}
	}
}

// receiveData delivers one inbound data message.
func (r *Runtime) receiveData(p *poller, pkt *datapath.Packet, h *header) {
	p.shard.Inc(telemetry.CtrRxMessages)
	// DMA/PCIe byte-touch cost of the runtime receive path.
	pkt.Breakdown.Recv += r.tb.Scale(model.ScaleRuntime, time.Duration(r.rc.RxDMATouchNs*float64(pkt.Len)))

	sinks := r.view.Load().routes[h.channel].sinks
	if len(sinks) == 0 {
		p.shard.Inc(telemetry.CtrNoSinkDrops)
		_ = r.mm.Release(pkt.Slot)
		return
	}
	// The packet's own reference becomes the first sink's.
	if len(sinks) > 1 {
		_ = r.mm.AddRef(pkt.Slot, len(sinks)-1)
	}
	// The payload follows the INSANE header, at MsgHeadroom like every
	// message's: the frame landed at offset 0 of its slot.
	hdr := r.mm.Header(pkt.Slot)
	hdr.Breakdown = pkt.Breakdown
	hdr.Len = uint32(pkt.Len - HeaderLen)
	hdr.Stamps = 0
	if h.sampled {
		// The source sampled this message: it is timed from here on this
		// runtime's clock, as it was up to Send on the sender's.
		hdr.Stamps = uint8(stampsRemote)
	}
	r.deliver(p.shard, pkt.Slot, hdr, sinks)
}
