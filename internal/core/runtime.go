package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/sched"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// burst caps the messages a poller moves per pass and direction, and sizes
// its vectors.
const burst = model.DefaultBurst

// UDPPortBase is the base UDP port of runtime endpoints; each technology
// listens on UDPPortBase + tech id, so heterogeneous peers can address
// each other's planes deterministically.
const UDPPortBase = 46000

// TechPort returns the UDP port a runtime uses for one technology.
func TechPort(t model.Tech) uint16 { return UDPPortBase + uint16(t) }

// Config configures a Runtime.
type Config struct {
	// Name identifies the runtime in logs and warnings.
	Name string
	// Clock drives the TSN gate schedule and the poller's wait toward the
	// next gate opening. Defaults to a RealClock.
	Clock timebase.Clock
	// Testbed selects the calibrated cost environment (default Local).
	Testbed model.Testbed
	// Caps advertises which acceleration technologies this host offers.
	Caps datapath.Caps
	// Ports maps each available technology to its fabric NIC port. A
	// kernel port is mandatory (every host has a kernel stack).
	Ports map[model.Tech]*fabric.Port
	// Resolver is the fabric's IP→MAC table.
	Resolver *netstack.Resolver
	// Peers lists the remote runtimes reachable from this host.
	Peers []Peer
	// Mem configures the memory manager pools.
	Mem mempool.Config
	// GCL is the 802.1Qbv gate control list for time-sensitive streams
	// (default sched.DefaultGCL).
	GCL sched.GCL
	// Tenants declares the runtime's tenants (DESIGN.md §12). Sessions
	// bind to one via ConnectTenant; with an empty list every session is
	// the default tenant's.
	Tenants []TenantSpec
	// SharedPoller runs every datapath plugin on a single polling
	// thread (lowest resource usage); the default dedicates one thread
	// per plugin (§5.3: the mapping is configurable).
	SharedPoller bool
	// PollersPerPlugin runs N polling threads per datapath plugin
	// (default 1). The paper's §8 identifies receive-side parallelism —
	// "map the datapath plugins to multiple polling threads" — as the
	// answer to a single sender overflowing a single-core sink; this
	// implements it: endpoint access is serialized, but packet
	// processing and sink delivery proceed in parallel. Ignored when
	// SharedPoller is set.
	PollersPerPlugin int
	// Logf receives warnings and diagnostics; nil keeps them only in
	// Warnings().
	Logf func(format string, args ...any)
}

// Stats aggregates runtime activity counters.
type Stats struct {
	// TxMessages counts messages sent to remote peers (per-peer sends).
	TxMessages uint64
	// RxMessages counts data messages received from the network.
	RxMessages uint64
	// LocalDeliveries counts shared-memory deliveries to co-located
	// sinks.
	LocalDeliveries uint64
	// NoSinkDrops counts received messages with no subscribed sink.
	NoSinkDrops uint64
	// RingFullDrops counts deliveries dropped on full sink rings.
	RingFullDrops uint64
	// RTCDeliveries counts local deliveries made synchronously by the
	// run-to-completion fast path (a subset of LocalDeliveries).
	RTCDeliveries uint64
	// RTCFallbacks counts Emits on RTC-enabled streams that took the
	// queued path because a precondition failed.
	RTCFallbacks uint64
	// TechDowngrades counts remote sends that used a technology below
	// the stream's mapping because the peer lacks it.
	TechDowngrades uint64
	// Endpoint holds per-technology endpoint statistics.
	Endpoint map[model.Tech]datapath.Stats
}

// techState binds one technology's endpoint with its egress scheduler.
//
//insane:shared
type techState struct {
	tech  model.Tech        //insane:guardedby immutable after=newRuntime
	info  model.TechInfo    //insane:guardedby immutable after=newRuntime
	local netstack.Endpoint //insane:guardedby immutable after=newRuntime
	// port is the technology's fabric NIC port: source MAC and MTU of the
	// frames built for it, its share of the drop gauges, the RX doorbell.
	port *fabric.Port //insane:guardedby immutable after=newRuntime

	// mu serializes endpoint access: pollers own their techs, but
	// cross-technology sends (peer lacks the stream's tech) come from
	// other pollers, and PollersPerPlugin > 1 shares the endpoint. The
	// ep field itself is set once at construction; mu guards the
	// endpoint object's state, not the pointer.
	mu sync.Mutex
	ep *datapath.Endpoint //insane:guardedby immutable after=newRuntime

	// schedMu guards the egress scheduler when several pollers serve this
	// plugin (§8's multi-threaded datapath): the pointer is a
	// construction-time constant, its queue state is what the lock
	// protects. Its Pending count is read without the lock: zero means there
	// is nothing to dequeue and no gate to wait for (DESIGN.md §15).
	schedMu sync.Mutex
	egress  *sched.Egress[txToken] //insane:guardedby immutable after=newRuntime

	// pollers are the polling threads that serve this technology, fixed
	// at runtime construction: the ones a TX ring or the port's RX
	// doorbell has to wake.
	pollers []*poller //insane:guardedby immutable after=newRuntime
}

// ring wakes the technology's parked pollers; why is the wake counter
// the woken poller records (CtrPollerWakesTX or CtrPollerWakesRX).
//
//insane:hotpath
func (st *techState) ring(why telemetry.CounterID) {
	//insane:bounded by=one entry per polling thread serving the technology, fixed at runtime construction
	for _, p := range st.pollers {
		p.ring(why)
	}
}

// Ring is the RX doorbell of the technology's fabric port
// (fabric.Doorbell): a frame was queued for the endpoint.
//
//insane:hotpath
func (st *techState) Ring() { st.ring(telemetry.CtrPollerWakesRX) }

// Runtime is the INSANE runtime instance of one host.
//
//insane:shared
type Runtime struct {
	cfg   Config                    //insane:guardedby immutable after=newRuntime
	name  string                    //insane:guardedby immutable after=newRuntime
	clock timebase.Clock            //insane:guardedby immutable after=newRuntime
	tb    *model.Testbed            //insane:guardedby immutable after=newRuntime
	mm    *mempool.Manager          //insane:guardedby immutable after=newRuntime
	rc    *model.RuntimeCosts       //insane:guardedby immutable after=newRuntime
	techs map[model.Tech]*techState //insane:guardedby immutable after=newRuntime
	// peerByIP resolves a control message's source address to the
	// configured peer that owns it.
	peerByIP map[netstack.IPv4]*Peer //insane:guardedby immutable after=newRuntime
	// deliverCost is the charged cost of delivering to the first sink of a
	// fanout, to a further one, and to one past the cache knee (Fig. 8b).
	// All three are constants of tb and rc, scaled once here and copied
	// into every sink at CreateSink: a sink-ring descriptor carries only
	// the index (costIndex), and a consume adds the cost it names.
	deliverCost [3]time.Duration //insane:guardedby immutable after=newRuntime

	// tenants is the immutable tenant registry: index 0 (and the empty
	// name) is the default tenant, the declared ones follow.
	tenants      []*tenant          //insane:guardedby immutable after=newRuntime
	tenantByName map[string]*tenant //insane:guardedby immutable after=newRuntime

	// mu owns who is connected: the sessions (and, through them, their TX
	// lanes), the local sinks and the remote subscribers of every channel.
	// Every change to any of them ends in publishLocked.
	mu sync.RWMutex
	// conns are the sessions in connect order, which is the order every
	// view lists their lanes in, so a stepped run replays.
	conns []*ClientConn //insane:guardedby mu=mu
	// draining holds closed sessions whose lanes the pollers still drain.
	draining []*ClientConn            //insane:guardedby mu=mu
	sinks    map[uint32][]*SinkHandle //insane:guardedby mu=mu
	subs     map[uint32][]hop         //insane:guardedby mu=mu
	// warned keeps the first maxWarnings distinct warnings; suppressed
	// counts the ones dropped since.
	warned     []string //insane:guardedby mu=mu
	suppressed uint64   //insane:guardedby mu=mu

	// view is what the data path reads of all the above (view.go).
	view atomic.Pointer[view] //insane:guardedby rcu=publishLocked

	nextConnID   atomic.Int32  //insane:guardedby atomic
	nextStreamID atomic.Uint64 //insane:guardedby atomic

	// tel is the node's one telemetry domain (DESIGN.md §8): a shard per
	// polling thread, then each tenant's. Stats, Inspect, the Prometheus
	// exporter and the per-tenant views all read it.
	tel *telemetry.Telemetry //insane:guardedby immutable after=newRuntime

	pollers []*poller   //insane:guardedby immutable after=newRuntime
	stopped atomic.Bool //insane:guardedby atomic
	wg      sync.WaitGroup
}

// poller is one polling thread serving one or more datapaths (§5.3).
//
//insane:shared
type poller struct {
	states []*techState //insane:guardedby immutable after=newRuntime
	// kick is the poller's doorbell: one buffered slot carrying the wake
	// counter of whoever rang first.
	kick chan telemetry.CounterID //insane:guardedby immutable after=newRuntime
	stop chan struct{}            //insane:guardedby immutable after=newRuntime
	// parked is set by pollLoop before the last pass it runs ahead of
	// blocking on kick and cleared when it resumes; ringers skip the
	// channel operation while it is clear (DESIGN.md, "Idle policy").
	parked atomic.Bool //insane:guardedby atomic
	// batch is the poller's own dequeue vector: the scheduler copies the
	// released tokens into it under the scheduler lock and the poller
	// dispatches them after letting go. waits is its companion: what each
	// waited in the scheduler.
	batch []txToken       //insane:guardedby confined owner=pollLoop
	waits []time.Duration //insane:guardedby confined owner=pollLoop
	// rxPkts is the poller's own RX burst vector: the endpoint's Poll fills
	// it under the endpoint lock and the poller delivers it after letting
	// go, so pollers sharing an endpoint never share a packet. rxHdrs holds
	// each packet's INSANE header, decoded under the lock (takeRX).
	rxPkts []datapath.Packet //insane:guardedby confined owner=pollLoop
	rxHdrs []header          //insane:guardedby confined owner=pollLoop
	// toks is the scratch buffer for batched TX-ring pops.
	toks []txToken //insane:guardedby confined owner=pollLoop
	// sendPkt/sendVec are the scratch destination-specific packet and
	// send vector for sendToPeer (Endpoint.Send is synchronous).
	sendPkt datapath.Packet     //insane:guardedby confined owner=pollLoop
	sendVec [1]*datapath.Packet //insane:guardedby confined owner=pollLoop
	// shard is this poller's private telemetry slab; every hot-path
	// counter bump and histogram observation lands here, so steady-state
	// recording never bounces a cache line between pollers.
	shard *telemetry.Shard //insane:guardedby immutable after=newRuntime
}

// NewRuntime opens the endpoints for every available technology and
// starts the polling threads.
func NewRuntime(cfg Config) (*Runtime, error) {
	r, err := newRuntime(cfg)
	if err == nil {
		r.start()
	}
	return r, err
}

// newRuntime builds a runtime whose polling threads are not running yet.
func newRuntime(cfg Config) (*Runtime, error) {
	if cfg.Ports[model.TechKernelUDP] == nil {
		return nil, errors.New("core: a kernel UDP port is mandatory")
	}
	if cfg.Resolver == nil {
		return nil, errors.New("core: resolver required")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = timebase.NewRealClock()
	}
	tb := cfg.Testbed
	if tb.Name == "" {
		tb = model.Local
	}
	gcl := cfg.GCL
	if gcl == nil {
		gcl = sched.DefaultGCL()
	}
	mm, err := mempool.NewManager(cfg.Mem)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tenants, byName, err := buildTenants(cfg.Tenants)
	if err != nil {
		return nil, err
	}

	rc := model.DefaultRuntimeCosts()
	r := &Runtime{
		cfg:   cfg,
		name:  cfg.Name,
		clock: clock,
		tb:    &tb,
		mm:    mm,
		rc:    &rc,
		techs: make(map[model.Tech]*techState),
		sinks: make(map[uint32][]*SinkHandle),
		subs:  make(map[uint32][]hop),

		peerByIP: make(map[netstack.IPv4]*Peer),

		tenants:      tenants,
		tenantByName: byName,
	}
	base := tb.Scale(r.rc.Deliver.Class, r.rc.Deliver.Fixed+r.rc.Deliver.Amort)
	r.deliverCost = [3]time.Duration{
		base,
		base + tb.Scale(model.ScaleRuntime, time.Duration(r.rc.PerExtraSinkNs)),
		base + tb.Scale(model.ScaleRuntime, time.Duration(r.rc.PerExtraSinkSpillNs)),
	}
	for i := range cfg.Peers {
		for _, ip := range cfg.Peers[i].Addrs {
			r.peerByIP[ip] = &cfg.Peers[i]
		}
	}
	r.publishLocked()

	for _, tech := range cfg.Caps.List() {
		port := cfg.Ports[tech]
		if port == nil {
			continue // capability advertised but no port wired: skip
		}
		local := netstack.Endpoint{IP: port.IP(), Port: TechPort(tech)}
		ep, err := datapath.Open(tech, datapath.Config{
			Port:     port,
			Resolver: cfg.Resolver,
			Local:    local,
			Mem:      mm,
			Testbed:  tb,
		})
		if err != nil {
			return nil, fmt.Errorf("core: open %s: %w", tech, err)
		}
		egress, err := sched.NewEgress[txToken](gcl, tenantWeights(tenants))
		if err != nil {
			return nil, err
		}
		r.techs[tech] = &techState{
			tech:   tech,
			info:   model.Info(tech),
			local:  local,
			port:   port,
			ep:     ep,
			egress: egress,
		}
	}

	// Thread mapping (§5.3), in Table 1 order so that poller i and its
	// shard are the same on every run: one polling thread per datapath
	// plugin by default, a single shared thread when resource consumption
	// is paramount, or several threads per plugin for receive-side
	// parallelism (§8).
	var all []*techState
	for _, tech := range r.Techs() {
		all = append(all, r.techs[tech])
	}
	groups := [][]*techState{all}
	if !cfg.SharedPoller {
		groups = nil
		for _, st := range all {
			for i := 0; i < max(cfg.PollersPerPlugin, 1); i++ {
				groups = append(groups, []*techState{st})
			}
		}
	}
	// One telemetry shard per polling thread (hot-path writers stay on
	// private cache lines, and no client handle is ever given one), then
	// each tenant's, in registry order.
	next := len(groups)
	for _, t := range tenants {
		next += len(t.shards)
	}
	r.tel = telemetry.New(next)
	next = len(groups)
	for _, t := range tenants {
		for i := range t.shards {
			t.shards[i] = r.tel.Shard(next)
			next++
		}
	}
	for i, g := range groups {
		p := &poller{
			states: g,
			kick:   make(chan telemetry.CounterID, 1),
			stop:   make(chan struct{}),
			batch:  make([]txToken, burst),
			waits:  make([]time.Duration, burst),
			rxPkts: make([]datapath.Packet, burst),
			rxHdrs: make([]header, burst),
			toks:   make([]txToken, burst),
			shard:  r.tel.Shard(i),
		}
		r.pollers = append(r.pollers, p)
		for _, st := range g {
			st.pollers = append(st.pollers, p)
		}
	}
	// Every source of work rings the pollers that serve it: Emit through
	// the stream's techState, the fabric through the port's RX doorbell.
	// Both are in place before the first poller runs.
	for _, st := range r.techs {
		st.port.SetRxDoorbell(st)
	}
	return r, nil
}

// start launches the polling threads.
func (r *Runtime) start() {
	for _, p := range r.pollers {
		r.wg.Add(1)
		//insane:goroutine owner=Runtime stop=Close
		go r.pollLoop(p)
	}
}

// Name returns the runtime's configured name.
func (r *Runtime) Name() string { return r.name }

// Mem exposes the runtime memory manager (used by tests and benchmarks).
func (r *Runtime) Mem() *mempool.Manager { return r.mm }

// EffectiveCaps reports the technologies with an open endpoint.
func (r *Runtime) EffectiveCaps() datapath.Caps {
	var caps datapath.Caps
	for t := range r.techs {
		switch t {
		case model.TechDPDK:
			caps.DPDK = true
		case model.TechXDP:
			caps.XDP = true
		case model.TechRDMA:
			caps.RDMA = true
		}
	}
	return caps
}

// Techs lists the open technologies in Table 1 order.
func (r *Runtime) Techs() []model.Tech {
	var out []model.Tech
	for _, t := range []model.Tech{model.TechKernelUDP, model.TechXDP, model.TechDPDK, model.TechRDMA} {
		if _, ok := r.techs[t]; ok {
			out = append(out, t)
		}
	}
	return out
}

// Connect opens a client session with the runtime (init_session) under
// the default tenant.
func (r *Runtime) Connect() (*ClientConn, error) {
	return r.ConnectTenant("")
}

// ConnectTenant opens a client session bound to a declared tenant; the
// empty name selects the implicit default tenant (no quotas, weight 1).
func (r *Runtime) ConnectTenant(name string) (*ClientConn, error) {
	if r.stopped.Load() {
		return nil, ErrClosed
	}
	ten, ok := r.tenantByName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	c := &ClientConn{
		rt:      r,
		id:      mempool.Owner(r.nextConnID.Add(1)),
		ten:     ten,
		streams: make(map[uint64]*StreamHandle),
	}
	r.mu.Lock()
	r.conns = append(r.conns, c)
	r.publishLocked()
	r.mu.Unlock()
	return c, nil
}

// dropConn takes a closed session out of the runtime without waiting. A
// session whose lanes hold tokens moves to the draining list, its lanes stay
// in the view until a pass finds them empty (retireDrained), and their
// pollers are rung: one may have emptied them and parked before this view
// was published. A stopped runtime reclaims them at once, deciding under
// r.mu like Close. Then any slot the session still owns is released.
func (r *Runtime) dropConn(c *ClientConn) {
	r.mu.Lock()
	r.conns = slices.DeleteFunc(r.conns, func(x *ClientConn) bool { return x == c })
	reclaimed, held := 0, false
	if r.stopped.Load() {
		reclaimed = r.reclaimLanes(c.lanes)
	} else if held = c.lanes.held(); held {
		r.draining = append(r.draining, c)
	}
	lanes := c.lanes // final: lane refuses a session that left conns
	r.publishLocked()
	r.mu.Unlock()
	for tech, l := range lanes {
		if held && l != nil {
			r.techs[model.Tech(tech)].ring(telemetry.CtrPollerWakesTX)
		}
	}
	if reclaimed > 0 {
		r.warnf("session %d: reclaimed %d undrained TX tokens on detach", c.id, reclaimed)
	}
	if n := r.mm.ReleaseOwner(c.id); n > 0 {
		r.warnf("session %d: reclaimed %d leaked slots on detach", c.id, n)
	}
}

// reclaimLanes settles every TX token left in lanes no poller will drain —
// the balance the poller would have restored: settle the token, release
// the slot, and count the reclaim on the token's tenant.
func (r *Runtime) reclaimLanes(lanes laneSet) int {
	n := 0
	for _, l := range lanes {
		for l != nil {
			tok, ok := l.pop()
			if !ok {
				break
			}
			tok.settle()
			r.mm.Release(tok.slot)
			tok.src.ten.shards[0].Inc(telemetry.CtrTxReclaims)
			n++
		}
	}
	return n
}

// SubscriberCount reports how many remote peers subscribed to a channel
// (useful to avoid startup races in tests and examples).
func (r *Runtime) SubscriberCount(channel uint32) int {
	return len(r.view.Load().routes[channel].hops)
}

// Warnings returns the warnings accumulated so far (e.g. QoS fallback
// decisions, §5.2): at most maxWarnings distinct ones, then one line
// counting the rest.
func (r *Runtime) Warnings() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]string(nil), r.warned...)
	if r.suppressed > 0 {
		out = append(out, fmt.Sprintf("%d further warnings suppressed (repeats, or past the first %d)", r.suppressed, maxWarnings))
	}
	return out
}

// Stats returns a snapshot of the runtime counters.
func (r *Runtime) Stats() Stats {
	s := Stats{
		TxMessages:      r.tel.Counter(telemetry.CtrTxMessages),
		RxMessages:      r.tel.Counter(telemetry.CtrRxMessages),
		LocalDeliveries: r.tel.Counter(telemetry.CtrLocalDeliveries),
		NoSinkDrops:     r.tel.Counter(telemetry.CtrNoSinkDrops),
		RingFullDrops:   r.tel.Counter(telemetry.CtrRingFullDrops),
		RTCDeliveries:   r.tel.Counter(telemetry.CtrRTCDeliveries),
		RTCFallbacks:    r.tel.Counter(telemetry.CtrRTCFallbacks),
		TechDowngrades:  r.tel.Counter(telemetry.CtrTechDowngrades),
		Endpoint:        make(map[model.Tech]datapath.Stats, len(r.techs)),
	}
	for t, st := range r.techs {
		s.Endpoint[t] = st.ep.Stats()
	}
	return s
}

// Telemetry exposes the runtime's telemetry domain (exporters, tests).
func (r *Runtime) Telemetry() *telemetry.Telemetry { return r.tel }

// MetricsSnapshot merges every telemetry shard and samples the gauges
// owned by other components (memory pools, scheduler queues). It allocates
// and locks; call it from the control path only.
func (r *Runtime) MetricsSnapshot() *telemetry.Snapshot {
	s := r.tel.Snapshot()

	ms := r.mm.Stats()
	classes := r.mm.Classes()
	mp := telemetry.MempoolSnapshot{
		Gets:           ms.Gets,
		Failures:       ms.Failures,
		Releases:       ms.Releases,
		FreeSlots:      r.mm.FreeSlots(),
		CapSlots:       make([]int, len(classes)),
		CommittedSlots: r.mm.CommittedSlots(),
		SlotSizes:      make([]int, len(classes)),
	}
	for i, c := range classes {
		mp.CapSlots[i] = c.Slots
		mp.SlotSizes[i] = c.SlotSize
	}
	s.Mempool = mp

	for _, st := range r.techs {
		s.SchedQueueDepth += uint64(st.egress.Pending())
		ps, es := st.port.Stats(), st.ep.Stats()
		s.FabricDrops += ps.Dropped
		s.RxAllocDrops += ps.RxNoMem + es.RNRDrops
		// One drop reason whatever plane the frame arrived on: what the
		// self-demultiplexing endpoints refuse is what admitRX refuses
		// on the framed ones.
		s.Counters[telemetry.CtrRxMalformedDrops] += es.Malformed
	}
	return s
}

// Close stops the polling threads, reclaims what closed sessions left in
// their lanes, and releases the endpoints. Closing an endpoint closes its
// port and releases the frames still queued there, so when Close returns a
// peer that keeps transmitting takes nothing from this runtime's memory: its
// frames are dropped and counted.
func (r *Runtime) Close() error {
	if !r.stopped.CompareAndSwap(false, true) {
		return nil
	}
	for _, st := range r.techs {
		st.port.SetRxDoorbell(nil)
	}
	for _, p := range r.pollers {
		close(p.stop)
	}
	r.wg.Wait()
	if n := r.retireDrained(); n > 0 {
		r.warnf("reclaimed %d undrained TX tokens of closed sessions", n)
	}
	for _, st := range r.techs {
		_ = st.ep.Close()
	}
	return nil
}

// maxWarnings bounds what warnf keeps: some warnings are caused by bytes
// from outside (handleControl), and nothing a sender repeats may grow the
// runtime's memory.
const maxWarnings = 64

// warnf records (and optionally logs) a warning: the first maxWarnings
// distinct ones are kept and logged, the rest only counted.
func (r *Runtime) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	keep := len(r.warned) < maxWarnings
	for _, w := range r.warned {
		keep = keep && w != msg
	}
	if keep {
		r.warned = append(r.warned, msg)
	} else {
		r.suppressed++
	}
	r.mu.Unlock()
	if keep && r.cfg.Logf != nil {
		r.cfg.Logf("insane[%s]: %s", r.name, msg)
	}
}

// registerSink adds a sink to the channel dispatch table and announces
// the subscription to all peers.
func (r *Runtime) registerSink(k *SinkHandle) error {
	r.mu.Lock()
	r.sinks[k.channel] = append(r.sinks[k.channel], k)
	r.publishLocked()
	r.mu.Unlock()
	return r.broadcastControl(kindSub, k.channel, k.stream.tech)
}

// unregisterSink removes a sink; the last sink of a channel withdraws the
// remote subscription.
func (r *Runtime) unregisterSink(k *SinkHandle) {
	r.mu.Lock()
	list := r.sinks[k.channel]
	for i, s := range list {
		if s == k {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(r.sinks, k.channel)
	} else {
		r.sinks[k.channel] = list
	}
	last := len(list) == 0
	r.publishLocked()
	r.mu.Unlock()
	if last && !r.stopped.Load() {
		_ = r.broadcastControl(kindUnsub, k.channel, k.stream.tech)
	}
}

// broadcastControl sends a SUB/UNSUB message for a channel to every peer
// over the always-available kernel plane.
func (r *Runtime) broadcastControl(kind msgKind, channel uint32, tech model.Tech) error {
	st := r.techs[model.TechKernelUDP]
	for i := range r.cfg.Peers {
		peer := &r.cfg.Peers[i]
		ip, ok := peer.Addrs[model.TechKernelUDP]
		if !ok {
			continue
		}
		slot, buf, err := r.mm.Get(MsgHeadroom, mempool.NoOwner)
		if err != nil {
			return err
		}
		encodeHeader(buf[headroomOffset:], header{
			kind:    kind,
			channel: channel,
			aux:     uint8(tech),
		})
		pkt := &datapath.Packet{
			Slot: slot, Buf: buf,
			Off: headroomOffset, Len: HeaderLen,
			Src: st.local,
		}
		st.mu.Lock()
		_, err = st.ep.Send([]*datapath.Packet{pkt}, netstack.Endpoint{IP: ip, Port: TechPort(model.TechKernelUDP)})
		st.mu.Unlock()
		_ = r.mm.Release(slot)
		if err != nil {
			return fmt.Errorf("core: control send to %s: %w", peer.Name, err)
		}
	}
	return nil
}
