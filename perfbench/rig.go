//go:build perfbench

package main

import (
	"context"
	"fmt"
	"time"

	"github.com/insane-mw/insane/insane"
)

// workload is one named set of inputs; why records what it is for.
type workload struct {
	name, why string
	build     func(seed uint64, echoRing *spanRing) (*rig, error)
}

var workloads = []workload{
	{"local-queued",
		"64 B, 1 source to 1 sink on one node, default queued path: lane, poller wake, WDRR, dispatch and sink ring do all the work, netstack and fabric none; the path every default stream takes",
		buildLocalQueued},
	{"local-rtc-fanout",
		"64 B, 1 source to 4 sinks, run-to-completion: bypasses lane, poller and scheduler, so a change there must not move it; mempool, delivery x4 and telemetry are most of the cost",
		buildLocalRTC},
	{"remote-dpdk",
		"two nodes, DPDK plugin, in-process fabric: 64 B ping-pong RTT beside 8 KB one-way bursts; the only path through netstack, plugin, fabric and RX dispatch, at per-packet and per-byte cost",
		buildRemoteDPDK},
	{"tsn-mixed",
		"one node, a class-7 TSN message every 337 us behind a fresh 64 x 1 KB best-effort backlog of a quota-limited tenant: the only workload TAS gates, WDRR weights and tenant quotas decide",
		buildTSNMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Warm-up is a fixed amount of work, so that set-up time is comparable
// between runs: it fills the wrapper pools, the envelope caches and the
// pollers' lane snapshots before anything is timed.
const (
	warmPings  = 256
	warmBursts = 4
)

// tsnPeriod is coprime with the 250 us gate cycle of the default 802.1Qbv
// schedule, so successive TSN messages meet every phase of the cycle. On
// tsn-mixed burstLen is the best-effort backlog ahead of each of them.
const tsnPeriod = 337 * time.Microsecond

// rig is a built workload: a cluster with its sessions and the paths the
// load goroutine drives.
type rig struct {
	cluster  *insane.Cluster
	nodes    []*insane.Node
	sessions []*insane.Session
	echo     *echo

	// ping is the path whose messages are timed one at a time; bulk is
	// the path driven in bursts of burstLen (the same path on the local
	// workloads). On tsn-mixed ping is the TSN path and bulk the
	// best-effort backlog emitted ahead of every TSN message.
	ping, bulk *path
	burstLen   int
	mixed      bool
	due        int64 // tsn-mixed: when the next cycle is due

	// freeAtStart is each node's free mempool slots before any session
	// opened: the conservation check expects them back.
	freeAtStart [][]int
	// check, when set, is the workload's own assertion over the whole run.
	check func() []string
}

// paths returns the distinct paths of the rig.
func (r *rig) paths() []*path {
	if r.bulk == r.ping {
		return []*path{r.ping}
	}
	return []*path{r.ping, r.bulk}
}

// close stops the echo goroutine, closes the sessions and then the
// cluster. It may be called after closeSessions.
func (r *rig) close() {
	r.closeSessions()
	r.cluster.Close()
}

func (r *rig) closeSessions() {
	if r.echo != nil {
		r.echo.halt()
		r.echo = nil
	}
	for _, s := range r.sessions {
		_ = s.Close() // Close reports a flush error of a session that is being discarded anyway
	}
	r.sessions = nil
}

// newRig starts a cluster and records the idle state of its nodes.
func newRig(opts insane.ClusterOptions) (*rig, error) {
	c, err := insane.NewCluster(opts)
	if err != nil {
		return nil, fmt.Errorf("new cluster: %w", err)
	}
	r := &rig{cluster: c, nodes: c.Nodes()}
	for _, n := range r.nodes {
		r.freeAtStart = append(r.freeAtStart, freeSlots(n))
	}
	return r, nil
}

func freeSlots(n *insane.Node) []int {
	var free []int
	for _, c := range n.Metrics().Mempool.Classes {
		free = append(free, c.Free)
	}
	return free
}

// endpoint opens a session and a stream on a node.
func (r *rig) endpoint(node int, tenant insane.TenantID, opts ...insane.Option) (*insane.Stream, error) {
	var sopts []insane.SessionOption
	if tenant != "" {
		sopts = append(sopts, insane.WithTenant(tenant))
	}
	sess, err := r.nodes[node].InitSession(sopts...)
	if err != nil {
		return nil, fmt.Errorf("init session on %s: %w", r.nodes[node].Name(), err)
	}
	r.sessions = append(r.sessions, sess)
	st, err := sess.CreateStreamOpts(opts...)
	if err != nil {
		return nil, fmt.Errorf("create stream on %s: %w", r.nodes[node].Name(), err)
	}
	return st, nil
}

// localPath opens n sinks and then one source on a channel of st.
func localPath(name string, st *insane.Stream, channel, n, size int, seed uint64) (*path, error) {
	sinks := make([]*insane.Sink, n)
	for i := range sinks {
		k, err := st.CreateSink(channel, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: create sink: %w", name, err)
		}
		sinks[i] = k
	}
	src, err := st.CreateSource(channel)
	if err != nil {
		return nil, fmt.Errorf("%s: create source: %w", name, err)
	}
	return newPath(name, src, sinks, size, seed), nil
}

// warm runs the fixed warm-up and fails the build if a message is lost:
// a rig that cannot deliver is not worth measuring.
func (r *rig) warm() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < warmPings; i++ {
		if r.mixed {
			if _, err := r.bulk.sendN(r.burstLen); err != nil {
				return fmt.Errorf("warm-up backlog: %w", err)
			}
		}
		if _, _, err := r.ping.ping(ctx, nil); err != nil {
			return fmt.Errorf("warm-up ping %d: %w", i, err)
		}
		if r.mixed {
			if err := r.bulk.drainN(ctx, r.burstLen); err != nil {
				return fmt.Errorf("warm-up drain: %w", err)
			}
		}
	}
	if r.mixed {
		return nil
	}
	for i := 0; i < warmBursts; i++ {
		if _, err := r.bulk.sendN(r.burstLen); err != nil {
			return fmt.Errorf("warm-up burst: %w", err)
		}
		if err := r.bulk.drainN(ctx, r.burstLen); err != nil {
			return fmt.Errorf("warm-up burst drain: %w", err)
		}
	}
	return nil
}

func buildLocalQueued(seed uint64, _ *spanRing) (*rig, error) {
	r, err := newRig(insane.ClusterOptions{Nodes: []insane.NodeSpec{{Name: "a"}}, Seed: int64(seed)})
	if err != nil {
		return nil, err
	}
	st, err := r.endpoint(0, "")
	if err == nil {
		r.ping, err = localPath("local-queued", st, 1, 1, 64, seed)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.bulk, r.burstLen = r.ping, 256
	r.check = func() []string {
		if s := r.nodes[0].Stats(); s.RTCDeliveries != 0 {
			return []string{fmt.Sprintf("queued path made %d run-to-completion deliveries", s.RTCDeliveries)}
		}
		return nil
	}
	return r, nil
}

func buildLocalRTC(seed uint64, _ *spanRing) (*rig, error) {
	r, err := newRig(insane.ClusterOptions{Nodes: []insane.NodeSpec{{Name: "a"}}, Seed: int64(seed)})
	if err != nil {
		return nil, err
	}
	st, err := r.endpoint(0, "", insane.WithRunToCompletion(true))
	if err == nil {
		r.ping, err = localPath("local-rtc-fanout", st, 1, 4, 64, seed)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.bulk, r.burstLen = r.ping, 64
	r.check = func() []string {
		if s := r.nodes[0].Stats(); s.RTCDeliveries == 0 || s.RTCFallbacks != 0 {
			return []string{fmt.Sprintf("run-to-completion path not taken throughout: %d deliveries, %d fallbacks", s.RTCDeliveries, s.RTCFallbacks)}
		}
		return nil
	}
	return r, nil
}

func buildRemoteDPDK(seed uint64, echoRing *spanRing) (*rig, error) {
	r, err := newRig(insane.ClusterOptions{
		Nodes:    []insane.NodeSpec{{Name: "a", DPDK: true}, {Name: "b", DPDK: true}},
		Topology: insane.TopologyDirect,
		Seed:     int64(seed),
	})
	if err != nil {
		return nil, err
	}
	if err := r.wireRemote(seed, echoRing); err != nil {
		r.close()
		return nil, err
	}
	r.check = func() []string {
		var notes []string
		for _, n := range r.nodes {
			if s := n.Stats(); s.TechDowngrades != 0 {
				notes = append(notes, fmt.Sprintf("node %s sent %d messages below DPDK", n.Name(), s.TechDowngrades))
			}
		}
		return notes
	}
	return r, nil
}

func (r *rig) wireRemote(seed uint64, echoRing *spanRing) error {
	const pingCh, pongCh, bulkCh = 1, 2, 3
	var streams [2]*insane.Stream
	for i := range streams {
		st, err := r.endpoint(i, "", insane.WithDatapath(insane.Fast))
		if err != nil {
			return err
		}
		if st.Technology() != "dpdk" || st.FellBack() {
			return fmt.Errorf("fast stream on %s mapped to %s (fell back: %v), want dpdk", r.nodes[i].Name(), st.Technology(), st.FellBack())
		}
		streams[i] = st
	}
	a, b := streams[0], streams[1]
	// Sinks first: a source only reaches the subscribers it knows of.
	pingSink, err := b.CreateSink(pingCh, nil)
	if err != nil {
		return fmt.Errorf("ping sink: %w", err)
	}
	bulkSink, err := b.CreateSink(bulkCh, nil)
	if err != nil {
		return fmt.Errorf("bulk sink: %w", err)
	}
	pongSink, err := a.CreateSink(pongCh, nil)
	if err != nil {
		return fmt.Errorf("pong sink: %w", err)
	}
	for _, sub := range []struct{ node, channel int }{{0, pingCh}, {0, bulkCh}, {1, pongCh}} {
		if err := waitSubscribed(r.nodes[sub.node], sub.channel); err != nil {
			return err
		}
	}
	pingSrc, err := a.CreateSource(pingCh)
	if err != nil {
		return fmt.Errorf("ping source: %w", err)
	}
	bulkSrc, err := a.CreateSource(bulkCh)
	if err != nil {
		return fmt.Errorf("bulk source: %w", err)
	}
	pongSrc, err := b.CreateSource(pongCh)
	if err != nil {
		return fmt.Errorf("pong source: %w", err)
	}
	r.ping = newPath("remote-dpdk ping-pong", pingSrc, []*insane.Sink{pongSink}, 64, seed)
	r.bulk = newPath("remote-dpdk 8KB", bulkSrc, []*insane.Sink{bulkSink}, 8192, seed)
	r.burstLen = 128
	r.echo = startEcho(pingSink, pongSrc, echoRing)
	return nil
}

// waitSubscribed waits until the node has learned of a remote subscriber
// of the channel.
func waitSubscribed(n *insane.Node, channel int) error {
	deadline := time.Now().Add(5 * time.Second)
	for n.SubscriberCount(channel) == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s never learned of a subscriber of channel %d", n.Name(), channel)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

func buildTSNMixed(seed uint64, _ *spanRing) (*rig, error) {
	r, err := newRig(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "a"}},
		Seed:  int64(seed),
		Tenants: []insane.TenantSpec{
			{ID: "tsn", Weight: 4},
			{ID: "noisy", Weight: 1, MemSlots: 512, TxTokens: 256},
		},
	})
	if err != nil {
		return nil, err
	}
	tsn, err := r.endpoint(0, "tsn", insane.WithTiming(insane.TimeSensitive), insane.WithClass(7))
	if err == nil {
		r.ping, err = localPath("tsn-mixed tsn", tsn, 40, 1, 128, seed)
	}
	var noisy *insane.Stream
	if err == nil {
		noisy, err = r.endpoint(0, "noisy")
	}
	if err == nil {
		r.bulk, err = localPath("tsn-mixed best-effort", noisy, 41, 1, 1024, seed)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.mixed, r.burstLen = true, 64
	return r, nil
}
