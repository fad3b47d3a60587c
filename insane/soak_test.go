package insane_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

// TestSoakNoSlotLeaks churns sessions, streams, sources and sinks through
// hundreds of open/send/consume/close cycles and then verifies that every
// memory-pool slot on every node returned home. This is the conservation
// invariant the whole zero-copy design rests on: a leaked slot is lost
// capacity forever.
func TestSoakNoSlotLeaks(t *testing.T) {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "a", DPDK: true, RDMA: true},
			{Name: "b", DPDK: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	initial := make(map[string][]int)
	for _, n := range cluster.Nodes() {
		initial[n.Name()] = n.Runtime().Mem().FreeSlots()
	}

	rng := rand.New(rand.NewSource(4242))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for i := 0; i < iters; i++ {
		pubNode := cluster.Nodes()[rng.Intn(2)]
		subNode := cluster.Nodes()[1-rng.Intn(2)]

		var opts []insane.Option
		if rng.Intn(2) == 0 {
			opts = append(opts, insane.WithDatapath(insane.Fast))
		}
		channel := 500 + rng.Intn(8)

		subSess, err := subNode.InitSession()
		if err != nil {
			t.Fatal(err)
		}
		subStream, err := subSess.CreateStreamOpts(opts...)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := subStream.CreateSink(channel, nil)
		if err != nil {
			t.Fatal(err)
		}

		pubSess, err := pubNode.InitSession()
		if err != nil {
			t.Fatal(err)
		}
		pubStream, err := pubSess.CreateStreamOpts(opts...)
		if err != nil {
			t.Fatal(err)
		}
		local := pubNode == subNode
		if !local {
			deadline := time.Now().Add(2 * time.Second)
			for pubNode.SubscriberCount(channel) == 0 && time.Now().Before(deadline) {
				time.Sleep(50 * time.Microsecond)
			}
		}
		src, err := pubStream.CreateSource(channel)
		if err != nil {
			t.Fatal(err)
		}

		msgs := 1 + rng.Intn(5)
		for m := 0; m < msgs; m++ {
			size := 1 + rng.Intn(512)
			buf, err := src.GetBuffer(size)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(8) == 0 {
				src.Abort(buf) // exercise the abort path too
				continue
			}
			for {
				_, err = src.Emit(buf, size)
				if err != insane.ErrBackpressure {
					break
				}
				time.Sleep(5 * time.Microsecond)
			}
			if err != nil {
				t.Fatal(err)
			}
			msg, err := consumeWithin(sink, 2*time.Second)
			if err != nil {
				t.Fatalf("iter %d msg %d: %v", i, m, err)
			}
			sink.Release(msg)
		}
		// Sometimes close abruptly (session close reclaims), sometimes
		// tidily (sink first).
		if rng.Intn(2) == 0 {
			sink.Close()
		}
		if err := pubSess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := subSess.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Wait for quiescence, then check conservation on every node.
	for _, n := range cluster.Nodes() {
		n := n
		deadline := time.Now().Add(3 * time.Second)
		for {
			got := n.Runtime().Mem().FreeSlots()
			if equalInts(got, initial[n.Name()]) {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("node %s leaked slots: free %v, want %v (stats: %+v)",
					n.Name(), got, initial[n.Name()], n.Runtime().Mem().Stats())
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSoakWarningsBounded: the soak must not spam warnings (only expected
// ones: none here, since capabilities match requests or map cleanly).
func TestSoakWarningsBounded(t *testing.T) {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "a", DPDK: true}, {Name: "b", DPDK: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i := 0; i < 20; i++ {
		sess, _ := cluster.Nodes()[i%2].InitSession()
		st, _ := sess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
		if st.FellBack() {
			t.Fatal("unexpected fallback")
		}
		sess.Close()
	}
	for _, n := range cluster.Nodes() {
		if w := n.Warnings(); len(w) != 0 {
			t.Errorf("node %s warnings: %v", n.Name(), w)
		}
	}
}

// TestManyChannelsFanIn drives 16 channels into one consumer node
// concurrently — the MoM-style fan-in shape at the raw API level.
func TestManyChannelsFanIn(t *testing.T) {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "hub"}, {Name: "spoke"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	hubSess, _ := cluster.Node("hub").InitSession()
	hubStream, _ := hubSess.CreateStreamOpts()
	const channels = 16
	sinks := make([]*insane.Sink, channels)
	for ch := 0; ch < channels; ch++ {
		k, err := hubStream.CreateSink(700+ch, nil)
		if err != nil {
			t.Fatal(err)
		}
		sinks[ch] = k
	}

	spokeSess, _ := cluster.Node("spoke").InitSession()
	spokeStream, _ := spokeSess.CreateStreamOpts()
	deadline := time.Now().Add(3 * time.Second)
	for ch := 0; ch < channels; ch++ {
		for cluster.Node("spoke").SubscriberCount(700+ch) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("channel %d subscription not learned", ch)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for ch := 0; ch < channels; ch++ {
		src, err := spokeStream.CreateSource(700 + ch)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := src.GetBuffer(16)
		if err != nil {
			t.Fatal(err)
		}
		n := copy(buf.Payload, fmt.Sprintf("ch%d", ch))
		if _, err := src.Emit(buf, n); err != nil {
			t.Fatal(err)
		}
	}
	for ch, k := range sinks {
		m, err := consumeWithin(k, 2*time.Second)
		if err != nil {
			t.Fatalf("channel %d: %v", ch, err)
		}
		if want := fmt.Sprintf("ch%d", ch); string(m.Payload) != want {
			t.Errorf("channel %d payload = %q, want %q", ch, m.Payload, want)
		}
		k.Release(m)
	}
}
