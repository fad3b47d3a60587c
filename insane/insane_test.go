package insane_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/internal/telemetry"
)

// twoNodes builds a two-node cluster where both nodes offer the given
// technologies.
func twoNodes(t *testing.T, spec insane.NodeSpec) *insane.Cluster {
	t.Helper()
	a, b := spec, spec
	a.Name, b.Name = "edge-1", "edge-2"
	c, err := insane.NewCluster(insane.ClusterOptions{Nodes: []insane.NodeSpec{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitSubs waits until node n sees k remote subscribers on channel.
func waitSubs(t *testing.T, n *insane.Node, channel, k int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for n.SubscriberCount(channel) < k {
		if time.Now().After(deadline) {
			t.Fatalf("subscription on channel %d not learned", channel)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// consumeWithin pops one delivery with a deadline, the test-side idiom
// for the context-aware consume call.
// samplesOf is how many of one source's first n messages feed the latency
// histograms: the first, then every 64th (DESIGN.md §8). Exact as long as
// no Emit of the source was refused — a refused Emit consumes a sequence
// number.
func samplesOf(n int) uint64 {
	return uint64((n + telemetry.SamplePeriod - 1) / telemetry.SamplePeriod)
}

func consumeWithin(k *insane.Sink, d time.Duration) (*insane.Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return k.ConsumeContext(ctx)
}

func send(t *testing.T, src *insane.Source, payload []byte) uint32 {
	t.Helper()
	b, err := src.GetBuffer(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Payload, payload)
	tok, err := src.Emit(b, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestClusterValidation(t *testing.T) {
	if _, err := insane.NewCluster(insane.ClusterOptions{}); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := insane.NewCluster(insane.ClusterOptions{
		Nodes:    []insane.NodeSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Topology: insane.TopologyDirect,
	}); err == nil {
		t.Error("3-node direct topology accepted")
	}
	if _, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "a"}, {Name: "a"}},
	}); err == nil {
		t.Error("duplicate node names accepted")
	}
	if _, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{}},
	}); err == nil {
		t.Error("unnamed node accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{DPDK: true})
	sess1, err := c.Node("edge-1").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := c.Node("edge-2").InitSession()
	if err != nil {
		t.Fatal(err)
	}
	st1, err := sess1.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Technology() != "dpdk" {
		t.Fatalf("fast stream on DPDK nodes → %s", st1.Technology())
	}
	st2, _ := sess2.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	sink, err := st2.CreateSink(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitSubs(t, c.Node("edge-1"), 42, 1)
	src, err := st1.CreateSource(42)
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("hello edge cloud")
	tok := send(t, src, msg)

	got, err := consumeWithin(sink, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, msg) {
		t.Errorf("payload = %q, want %q", got.Payload, msg)
	}
	if got.Channel != 42 {
		t.Errorf("channel = %d", got.Channel)
	}
	if got.Latency <= 0 {
		t.Error("latency not accounted")
	}
	if st := got.Stages(); st.Send+st.Network+st.Recv+st.Processing != got.Latency {
		t.Error("breakdown does not sum to latency")
	}
	sink.Release(got)

	deadline := time.Now().Add(time.Second)
	for {
		if o, ok := src.EmitOutcome(tok); ok {
			if o.RemotePeers != 1 || o.Err != nil {
				t.Fatalf("outcome = %+v", o)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no outcome")
		}
		time.Sleep(time.Millisecond)
	}

	if err := sess1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCallbackSink(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{})
	sess1, _ := c.Node("edge-1").InitSession()
	sess2, _ := c.Node("edge-2").InitSession()
	st1, _ := sess1.CreateStreamOpts()
	st2, _ := sess2.CreateStreamOpts()

	var mu sync.Mutex
	var got [][]byte
	sink, err := st2.CreateSink(7, func(m *insane.Message) {
		mu.Lock()
		got = append(got, append([]byte(nil), m.Payload...))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	waitSubs(t, c.Node("edge-1"), 7, 1)
	src, _ := st1.CreateSource(7)
	for i := 0; i < 5; i++ {
		send(t, src, []byte{byte(i)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("callback saw %d of 5 messages", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if len(m) != 1 || m[0] != byte(i) {
			t.Errorf("message %d = %v", i, m)
		}
	}
	sink.Close()
	sink.Close() // idempotent
}

func TestFallbackVisibleToApplication(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{}) // kernel only
	sess, _ := c.Node("edge-1").InitSession()
	st, err := sess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	if err != nil {
		t.Fatal(err)
	}
	if !st.FellBack() || st.Technology() != "kernel-udp" {
		t.Errorf("fallback not visible: tech=%s fellback=%v", st.Technology(), st.FellBack())
	}
	if len(c.Node("edge-1").Warnings()) == 0 {
		t.Error("no warning recorded")
	}
}

func TestFrugalResourcesPickXDP(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{DPDK: true, XDP: true})
	sess, _ := c.Node("edge-1").InitSession()
	st, _ := sess.CreateStreamOpts(insane.WithDatapath(insane.Fast), insane.WithResources(insane.Frugal))
	if st.Technology() != "xdp" {
		t.Errorf("frugal fast stream = %s, want xdp", st.Technology())
	}
	st2, _ := sess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	if st2.Technology() != "dpdk" {
		t.Errorf("unconstrained fast stream = %s, want dpdk", st2.Technology())
	}
}

func TestNodeIntrospection(t *testing.T) {
	c := twoNodes(t, insane.NodeSpec{DPDK: true, RDMA: true})
	n := c.Node("edge-1")
	techs := n.Technologies()
	if len(techs) != 3 || techs[0] != "kernel-udp" {
		t.Errorf("technologies = %v", techs)
	}
	if c.Node("nope") != nil {
		t.Error("unknown node lookup returned non-nil")
	}
	if len(c.Nodes()) != 2 || c.Nodes()[0].Name() != "edge-1" {
		t.Error("Nodes() order wrong")
	}
	var st insane.Stats = n.Stats()
	if st.TxMessages != 0 {
		t.Error("fresh node has traffic")
	}
}

// TestMigrationScenario is the paper's core motivation: a component using
// a fast stream on a DPDK node migrates to a kernel-only node; the same
// code re-attaches and keeps communicating, just on a slower plane.
func TestMigrationScenario(t *testing.T) {
	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "edge-dpdk", DPDK: true},
			{Name: "edge-bare"},
			{Name: "cloud", DPDK: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The consumer runs on "cloud" throughout.
	cloudSess, _ := c.Node("cloud").InitSession()
	cloudStream, _ := cloudSess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	sink, _ := cloudStream.CreateSink(99, nil)
	defer sink.Close()

	// Component runs on the DPDK node first: the exact same code block is
	// executed on both nodes (the portability claim).
	runComponent := func(node *insane.Node, payload []byte) (string, bool) {
		sess, err := node.InitSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		st, err := sess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
		if err != nil {
			t.Fatal(err)
		}
		waitSubs(t, node, 99, 1)
		src, err := st.CreateSource(99)
		if err != nil {
			t.Fatal(err)
		}
		send(t, src, payload)
		return st.Technology(), st.FellBack()
	}

	tech1, fb1 := runComponent(c.Node("edge-dpdk"), []byte("from dpdk node"))
	m1, err := consumeWithin(sink, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sink.Release(m1)

	tech2, fb2 := runComponent(c.Node("edge-bare"), []byte("from bare node"))
	m2, err := consumeWithin(sink, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sink.Release(m2)

	if tech1 != "dpdk" || fb1 {
		t.Errorf("pre-migration: tech=%s fellback=%v, want dpdk", tech1, fb1)
	}
	if tech2 != "kernel-udp" || !fb2 {
		t.Errorf("post-migration: tech=%s fellback=%v, want kernel fallback", tech2, fb2)
	}
}

func TestSwitchedTopologyThreeNodes(t *testing.T) {
	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sessA, _ := c.Node("a").InitSession()
	stA, _ := sessA.CreateStreamOpts()
	var sinks []*insane.Sink
	for _, name := range []string{"b", "c"} {
		sess, _ := c.Node(name).InitSession()
		st, _ := sess.CreateStreamOpts()
		k, err := st.CreateSink(5, nil)
		if err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, k)
	}
	waitSubs(t, c.Node("a"), 5, 2)
	src, _ := stA.CreateSource(5)
	send(t, src, []byte("multicast"))
	for i, k := range sinks {
		m, err := consumeWithin(k, 2*time.Second)
		if err != nil {
			t.Fatalf("sink %d: %v", i, err)
		}
		if string(m.Payload) != "multicast" {
			t.Errorf("sink %d payload = %q", i, m.Payload)
		}
		k.Release(m)
	}
}

func TestLossyLinkBestEffort(t *testing.T) {
	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes:    []insane.NodeSpec{{Name: "a"}, {Name: "b"}},
		LossRate: 0.3,
		Seed:     99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sessA, _ := c.Node("a").InitSession()
	sessB, _ := c.Node("b").InitSession()
	stA, _ := sessA.CreateStreamOpts()
	stB, _ := sessB.CreateStreamOpts()
	sink, _ := stB.CreateSink(1, nil)

	// The SUB itself may be lost: keep re-creating sinks until the
	// subscription lands (applications would re-announce; the control
	// plane is best-effort like everything else, §5.2).
	deadline := time.Now().Add(3 * time.Second)
	for c.Node("a").SubscriberCount(1) == 0 {
		if time.Now().After(deadline) {
			t.Skip("subscription never survived the lossy link")
		}
		extra, _ := stB.CreateSink(1, nil)
		extra.Close()
		time.Sleep(time.Millisecond)
	}

	src, _ := stA.CreateSource(1)
	const total = 200
	for i := 0; i < total; i++ {
		send(t, src, []byte{byte(i)})
	}
	received := 0
	for {
		m, err := consumeWithin(sink, 100*time.Millisecond)
		if err != nil {
			break
		}
		received++
		sink.Release(m)
	}
	if received == 0 || received >= total {
		t.Errorf("received %d of %d over a 30%% lossy link", received, total)
	}
}
