package insane

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/internal/core"
	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/sched"
)

// Topology selects how cluster nodes are interconnected.
type Topology int

// Topologies.
const (
	// TopologyAuto uses a direct cable for two nodes and a switch
	// otherwise.
	TopologyAuto Topology = iota
	// TopologyDirect wires matching technology ports back to back (the
	// paper's local testbed). Only valid for exactly two nodes.
	TopologyDirect
	// TopologySwitched attaches every port to one store-and-forward
	// switch (the paper's public-cloud testbed).
	TopologySwitched
)

// NodeSpec describes one edge node of a cluster and the acceleration
// technologies its hardware offers.
type NodeSpec struct {
	Name string
	// DPDK, XDP and RDMA advertise optional acceleration support;
	// kernel networking is always present.
	DPDK, XDP, RDMA bool
	// SharedPoller maps all datapath plugins of this node to a single
	// polling thread (lowest resource usage, §5.3).
	SharedPoller bool
	// PollersPerPlugin runs several polling threads per datapath plugin
	// for receive-side parallelism (§8). Zero means one. Ignored when
	// SharedPoller is set.
	PollersPerPlugin int
	// TSNSchedule overrides the default 802.1Qbv gate control list for
	// time-sensitive streams on this node.
	TSNSchedule []GateWindow
}

// GateWindow is one slice of an 802.1Qbv cycle for NodeSpec.TSNSchedule.
type GateWindow struct {
	// Duration of the window.
	Duration time.Duration
	// Classes is the bitmask of open traffic classes (bit i = class i).
	Classes uint8
}

// ClusterOptions configures a virtual edge deployment.
type ClusterOptions struct {
	// Nodes lists the edge nodes (at least two for remote traffic).
	Nodes []NodeSpec
	// Topology selects direct cabling or a switch (default auto).
	Topology Topology
	// Cloud switches the calibrated cost environment from the local
	// testbed to the public-cloud one (slower CPU, switch latency).
	Cloud bool
	// LossRate injects random frame loss on every link, in [0,1].
	LossRate float64
	// WireJitter perturbs each frame's wire latency by a uniform
	// ±WireJitter, so latency distributions show realistic spread.
	// Zero keeps all timing deterministic.
	WireJitter time.Duration
	// Seed makes loss injection deterministic.
	Seed int64
	// Tenants declares the cluster's tenants (DESIGN.md §12): every node
	// gets the same tenant table, and sessions bind to one with
	// InitSession(WithTenant(...)). With an empty list every session is
	// the default tenant's: no quota, weight 1.
	Tenants []TenantSpec
	// Logf receives runtime warnings (optional).
	Logf func(format string, args ...any)
	// MetricsAddr, when non-empty, serves the cluster's telemetry as
	// Prometheus text at /metrics — plus net/http/pprof under
	// /debug/pprof/ — on an HTTP listener bound to this address. Use
	// "127.0.0.1:0" for an ephemeral port (Cluster.MetricsAddr reports
	// the bound address); a bare ":port" binds to loopback, as
	// the pprof handlers make this a debug endpoint.
	MetricsAddr string
}

// Cluster is a virtual edge deployment: a fabric plus one INSANE runtime
// per node.
//
//insane:shared
type Cluster struct {
	net   *fabric.Network  //insane:guardedby immutable after=NewCluster
	nodes map[string]*Node //insane:guardedby immutable after=NewCluster
	order []string         //insane:guardedby immutable after=NewCluster

	metricsLn  net.Listener //insane:guardedby immutable after=serveMetrics
	metricsSrv *http.Server //insane:guardedby immutable after=serveMetrics
	// metricsDone is closed by the metrics serve goroutine on exit, so
	// Close can join it instead of leaking it.
	metricsDone chan struct{} //insane:guardedby immutable after=serveMetrics
	// metricsClosed makes the endpoint shutdown exactly-once: the old
	// check-then-nil in Close was a double-close/data race when two
	// goroutines raced Close (Close is documented safe to repeat).
	metricsClosed atomic.Bool //insane:guardedby atomic
}

// Node is one edge node running an INSANE runtime.
//
//insane:shared
type Node struct {
	name string        //insane:guardedby immutable after=NewCluster
	rt   *core.Runtime //insane:guardedby immutable after=NewCluster
}

// NewCluster builds the fabric and starts a runtime on every node.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if len(opts.Nodes) == 0 {
		return nil, errors.New("insane: a cluster needs at least one node")
	}
	topo := opts.Topology
	if topo == TopologyAuto {
		if len(opts.Nodes) == 2 {
			topo = TopologyDirect
		} else {
			topo = TopologySwitched
		}
	}
	if topo == TopologyDirect && len(opts.Nodes) != 2 {
		return nil, fmt.Errorf("insane: direct topology needs exactly 2 nodes, got %d", len(opts.Nodes))
	}
	tb := model.Local
	if opts.Cloud {
		tb = model.Cloud
	}

	net := fabric.New(opts.Seed)
	link := fabric.LinkParams{
		Rate:      tb.LinkRate,
		PropDelay: tb.PropDelay,
		LossRate:  opts.LossRate,
		Jitter:    opts.WireJitter,
		MTU:       netstack.JumboMTU,
	}
	var sw *fabric.Switch
	if topo == TopologySwitched {
		sw = net.AddSwitch("tor", fabric.SwitchParams{Latency: tb.SwitchLatency})
	}

	// One fabric port per technology per node; IP = 10.0.<tech>.<node>.
	type nodePorts struct {
		spec  NodeSpec
		caps  datapath.Caps
		ports map[model.Tech]*fabric.Port
	}
	all := make([]nodePorts, len(opts.Nodes))
	seen := make(map[string]bool, len(opts.Nodes))
	for i, spec := range opts.Nodes {
		if spec.Name == "" {
			return nil, fmt.Errorf("insane: node %d has no name", i)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("insane: duplicate node name %q", spec.Name)
		}
		seen[spec.Name] = true
		if i > 250 {
			return nil, errors.New("insane: too many nodes")
		}
		caps := datapath.Caps{DPDK: spec.DPDK, XDP: spec.XDP, RDMA: spec.RDMA}
		ports := make(map[model.Tech]*fabric.Port)
		for _, tech := range caps.List() {
			ip := netstack.IPv4{10, 0, byte(tech), byte(i + 1)}
			p, err := net.AddHost(fmt.Sprintf("%s-%s", spec.Name, tech), ip)
			if err != nil {
				return nil, err
			}
			ports[tech] = p
			if sw != nil {
				if err := net.ConnectToSwitch(p, sw, link); err != nil {
					return nil, err
				}
			}
		}
		all[i] = nodePorts{spec: spec, caps: caps, ports: ports}
	}
	if topo == TopologyDirect {
		for tech, pa := range all[0].ports {
			if pb, ok := all[1].ports[tech]; ok {
				if err := net.ConnectDirect(pa, pb, link); err != nil {
					return nil, err
				}
			}
		}
	}

	// Peer tables: everyone knows everyone's per-tech addresses.
	addrsOf := func(np nodePorts) map[model.Tech]netstack.IPv4 {
		m := make(map[model.Tech]netstack.IPv4, len(np.ports))
		for tech, p := range np.ports {
			m[tech] = p.IP()
		}
		return m
	}

	var tenants []core.TenantSpec
	for _, ts := range opts.Tenants {
		tenants = append(tenants, core.TenantSpec{
			Name:     string(ts.ID),
			Weight:   ts.Weight,
			MemSlots: ts.MemSlots,
			TxTokens: ts.TxTokens,
			MaxClass: ts.MaxClass,
		})
	}

	c := &Cluster{net: net, nodes: make(map[string]*Node, len(all))}
	for i, np := range all {
		var peers []core.Peer
		for j, other := range all {
			if j == i {
				continue
			}
			peers = append(peers, core.Peer{Name: other.spec.Name, Addrs: addrsOf(other)})
		}
		var gcl sched.GCL
		for _, w := range np.spec.TSNSchedule {
			gcl = append(gcl, sched.GCLEntry{Duration: w.Duration, Gates: w.Classes})
		}
		rt, err := core.NewRuntime(core.Config{
			Name:             np.spec.Name,
			Testbed:          tb,
			Caps:             np.caps,
			Ports:            np.ports,
			Resolver:         net.Resolver(),
			Peers:            peers,
			GCL:              gcl,
			Tenants:          tenants,
			SharedPoller:     np.spec.SharedPoller,
			PollersPerPlugin: np.spec.PollersPerPlugin,
			Logf:             opts.Logf,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes[np.spec.Name] = &Node{name: np.spec.Name, rt: rt}
		c.order = append(c.order, np.spec.Name)
	}
	if opts.MetricsAddr != "" {
		if err := c.serveMetrics(opts.MetricsAddr); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Node returns the named node, or nil if absent.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// Nodes returns the cluster's nodes in declaration order.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.nodes[name])
	}
	return out
}

// Close stops every runtime and shuts the metrics endpoint down. Safe
// to call repeatedly and from concurrent goroutines: the CAS elects one
// closer for the metrics endpoint, and the fields stay set (immutable
// after serveMetrics) rather than being nil-ed behind a racing reader.
func (c *Cluster) Close() {
	if c.metricsSrv != nil && c.metricsClosed.CompareAndSwap(false, true) {
		_ = c.metricsSrv.Close()
		<-c.metricsDone
	}
	for _, n := range c.nodes {
		if n.rt != nil {
			_ = n.rt.Close()
		}
	}
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Technologies lists the networking technologies available on the node,
// kernel UDP first.
func (n *Node) Technologies() []string {
	techs := n.rt.Techs()
	out := make([]string, len(techs))
	for i, t := range techs {
		out[i] = t.String()
	}
	return out
}

// Warnings returns the runtime's accumulated warnings (QoS fallbacks,
// reclaimed sessions, ...): a bounded number of distinct ones, then one
// line counting the repeats and the rest.
func (n *Node) Warnings() []string { return n.rt.Warnings() }

// Stats is a snapshot of a node's runtime activity.
type Stats struct {
	// TxMessages and RxMessages count data messages crossing the NIC.
	TxMessages, RxMessages uint64
	// LocalDeliveries counts co-located shared-memory deliveries.
	LocalDeliveries uint64
	// RTCDeliveries counts local deliveries made synchronously by the
	// run-to-completion fast path (a subset of LocalDeliveries);
	// RTCFallbacks counts emits on RTC-enabled streams that took the
	// queued path instead.
	RTCDeliveries, RTCFallbacks uint64
	// DroppedNoSink counts inbound messages with no subscribed sink.
	DroppedNoSink uint64
	// DroppedBackpressure counts deliveries dropped on full sink rings.
	DroppedBackpressure uint64
	// TechDowngrades counts sends below the stream's mapped technology
	// (heterogeneous peers).
	TechDowngrades uint64
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	s := n.rt.Stats()
	return Stats{
		TxMessages:          s.TxMessages,
		RxMessages:          s.RxMessages,
		LocalDeliveries:     s.LocalDeliveries,
		RTCDeliveries:       s.RTCDeliveries,
		RTCFallbacks:        s.RTCFallbacks,
		DroppedNoSink:       s.NoSinkDrops,
		DroppedBackpressure: s.RingFullDrops,
		TechDowngrades:      s.TechDowngrades,
	}
}

// Inspect renders a human-readable snapshot of the node's runtime state
// (datapaths, sessions, subscriptions, pools, counters).
func (n *Node) Inspect() string { return n.rt.Inspect() }

// SubscriberCount reports how many remote peers subscribed to a channel;
// useful to synchronize startup in examples and tests.
func (n *Node) SubscriberCount(channel int) int {
	return n.rt.SubscriberCount(uint32(channel))
}

// Runtime gives access to the underlying runtime for advanced tooling in
// this module (benchmark harness); applications should not need it.
func (n *Node) Runtime() *core.Runtime { return n.rt }
