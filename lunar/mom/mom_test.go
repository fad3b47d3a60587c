package mom

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

// cluster builds two nodes with the given acceleration support.
func cluster(t *testing.T, spec insane.NodeSpec) *insane.Cluster {
	t.Helper()
	a, b := spec, spec
	a.Name, b.Name = "pub-node", "sub-node"
	c, err := insane.NewCluster(insane.ClusterOptions{Nodes: []insane.NodeSpec{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// collector accumulates publications thread-safely.
type collector struct {
	mu   sync.Mutex
	msgs [][]byte
	meta []Meta
}

func (c *collector) handler(payload []byte, m Meta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, append([]byte(nil), payload...))
	c.meta = append(c.meta, m)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func waitCount(t *testing.T, c *collector, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d messages", c.count(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitTopicKnown waits until the publishing node learned the topic's
// remote subscription.
func waitTopicKnown(t *testing.T, n *insane.Node, topic string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for n.SubscriberCount(TopicChannel(topic)) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription for %q not learned", topic)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestPublishSubscribeRemote(t *testing.T) {
	c := cluster(t, insane.NodeSpec{DPDK: true})
	pub, err := New(c.Node("pub-node"), insane.WithDatapath(insane.Fast))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := New(c.Node("sub-node"), insane.WithDatapath(insane.Fast))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if pub.Technology() != "dpdk" {
		t.Errorf("Lunar fast technology = %s, want dpdk", pub.Technology())
	}

	col := &collector{}
	if err := sub.Subscribe("factory/line1/camera", col.handler); err != nil {
		t.Fatal(err)
	}
	waitTopicKnown(t, c.Node("pub-node"), "factory/line1/camera")

	msgs := [][]byte{[]byte("frame-1"), []byte("frame-2"), []byte("frame-3")}
	for _, m := range msgs {
		if err := pub.Publish("factory/line1/camera", m); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, col, len(msgs))
	for i, want := range msgs {
		if !bytes.Equal(col.msgs[i], want) {
			t.Errorf("msg %d = %q, want %q", i, col.msgs[i], want)
		}
		if col.meta[i].Topic != "factory/line1/camera" {
			t.Errorf("meta topic = %q", col.meta[i].Topic)
		}
		// Lunar fast one-way ≈ INSANE fast (~2.5µs) + ns-scale overhead.
		if col.meta[i].Latency < 2*time.Microsecond || col.meta[i].Latency > 4*time.Microsecond {
			t.Errorf("latency = %v, want ≈2.5µs", col.meta[i].Latency)
		}
	}
}

func TestPublishIntoZeroCopy(t *testing.T) {
	c := cluster(t, insane.NodeSpec{})
	pub, _ := New(c.Node("pub-node"))
	defer pub.Close()
	sub, _ := New(c.Node("sub-node"))
	defer sub.Close()

	col := &collector{}
	if err := sub.Subscribe("t", col.handler); err != nil {
		t.Fatal(err)
	}
	waitTopicKnown(t, c.Node("pub-node"), "t")
	err := pub.PublishInto("t", 8, func(dst []byte) int {
		copy(dst, "12345678")
		return 8
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCount(t, col, 1)
	if string(col.msgs[0]) != "12345678" {
		t.Errorf("payload = %q", col.msgs[0])
	}
	// Misbehaving fill callback.
	if err := pub.PublishInto("t", 4, func(dst []byte) int { return 9 }); err == nil {
		t.Error("out-of-bounds fill accepted")
	}
}

func TestTopicIsolation(t *testing.T) {
	c := cluster(t, insane.NodeSpec{})
	pub, _ := New(c.Node("pub-node"))
	defer pub.Close()
	sub, _ := New(c.Node("sub-node"))
	defer sub.Close()

	colA, colB := &collector{}, &collector{}
	sub.Subscribe("topic/a", colA.handler)
	sub.Subscribe("topic/b", colB.handler)
	waitTopicKnown(t, c.Node("pub-node"), "topic/a")
	waitTopicKnown(t, c.Node("pub-node"), "topic/b")

	pub.Publish("topic/a", []byte("for A"))
	waitCount(t, colA, 1)
	if colB.count() != 0 {
		t.Error("topic/b received topic/a traffic")
	}
}

func TestLocalPubSubSameNode(t *testing.T) {
	c := cluster(t, insane.NodeSpec{})
	m, _ := New(c.Node("pub-node"))
	defer m.Close()
	col := &collector{}
	m.Subscribe("loopback", col.handler)
	if err := m.Publish("loopback", []byte("self")); err != nil {
		t.Fatal(err)
	}
	waitCount(t, col, 1)
	if string(col.msgs[0]) != "self" {
		t.Errorf("payload = %q", col.msgs[0])
	}
}

func TestClosedMoM(t *testing.T) {
	c := cluster(t, insane.NodeSpec{})
	m, _ := New(c.Node("pub-node"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := m.Publish("t", []byte("x")); err == nil {
		t.Error("publish after close accepted")
	}
	if err := m.Subscribe("t", func([]byte, Meta) {}); err == nil {
		t.Error("subscribe after close accepted")
	}
}

func TestTopicChannelStability(t *testing.T) {
	if TopicChannel("a") != TopicChannel("a") {
		t.Error("TopicChannel not deterministic")
	}
	if TopicChannel("a") == TopicChannel("b") {
		t.Error("trivial collision")
	}
	if TopicChannel("x") < 0x1000 {
		t.Error("channel id in reserved low range")
	}
}
