package insane_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

// TestRandomTopologiesDeliver is a property test over deployment shapes:
// random node counts, random capability sets, random publisher/subscriber
// placements — every subscribed sink must receive every message, whatever
// technologies end up being used underneath.
func TestRandomTopologiesDeliver(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			nodes := 2 + rng.Intn(3) // 2..4
			specs := make([]insane.NodeSpec, nodes)
			for i := range specs {
				specs[i] = insane.NodeSpec{
					Name: fmt.Sprintf("n%d", i),
					DPDK: rng.Intn(2) == 0,
					XDP:  rng.Intn(2) == 0,
					RDMA: rng.Intn(3) == 0,
				}
			}
			cluster, err := insane.NewCluster(insane.ClusterOptions{
				Nodes: specs,
				Seed:  int64(trial),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			pub := cluster.Nodes()[rng.Intn(nodes)]
			channel := 100 + rng.Intn(50)
			var opts []insane.Option
			if rng.Intn(2) == 0 {
				opts = append(opts, insane.WithDatapath(insane.Fast))
			}
			if rng.Intn(3) == 0 {
				opts = append(opts, insane.WithResources(insane.Frugal))
			}

			// Subscribers on every *other* node.
			var sinks []*insane.Sink
			for _, n := range cluster.Nodes() {
				if n == pub {
					continue
				}
				sess, err := n.InitSession()
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				st, err := sess.CreateStreamOpts(opts...)
				if err != nil {
					t.Fatal(err)
				}
				k, err := st.CreateSink(channel, nil)
				if err != nil {
					t.Fatal(err)
				}
				sinks = append(sinks, k)
			}
			deadline := time.Now().Add(2 * time.Second)
			for pub.SubscriberCount(channel) < len(sinks) {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d subscriptions learned", pub.SubscriberCount(channel), len(sinks))
				}
				time.Sleep(100 * time.Microsecond)
			}

			sess, err := pub.InitSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			st, err := sess.CreateStreamOpts(opts...)
			if err != nil {
				t.Fatal(err)
			}
			src, err := st.CreateSource(channel)
			if err != nil {
				t.Fatal(err)
			}

			const msgs = 20
			for m := 0; m < msgs; m++ {
				size := 1 + rng.Intn(1024)
				buf, err := src.GetBuffer(size)
				if err != nil {
					t.Fatal(err)
				}
				buf.Payload[0] = byte(m)
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
			}
			for si, k := range sinks {
				for m := 0; m < msgs; m++ {
					d, err := consumeWithin(k, 2*time.Second)
					if err != nil {
						t.Fatalf("sink %d, msg %d: %v", si, m, err)
					}
					if d.Payload[0] != byte(m) {
						t.Fatalf("sink %d: message %d arrived as %d", si, m, d.Payload[0])
					}
					k.Release(d)
				}
			}
		})
	}
}
