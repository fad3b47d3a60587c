// Command lunar-demo runs the two INSANE-based applications of §7 end to
// end on a virtual three-node edge deployment: Lunar MoM distributing
// sensor readings, then Lunar Streaming pushing raw HD camera frames, and
// prints what the middleware did underneath.
package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/lunar/mom"
	"github.com/insane-mw/insane/lunar/streaming"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lunar-demo:", err)
		os.Exit(1)
	}
}

func run() error {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "sensor-gw", DPDK: true},
			{Name: "edge-dc", DPDK: true, RDMA: true},
			{Name: "bare-node"},
		},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	fmt.Println("== virtual edge deployment ==")
	for _, n := range cluster.Nodes() {
		fmt.Printf("  %-10s techs=%v\n", n.Name(), n.Technologies())
	}

	if err := momDemo(cluster); err != nil {
		return err
	}
	if err := streamingDemo(cluster); err != nil {
		return err
	}

	fmt.Println("\n== per-stage telemetry after the demo ==")
	for _, n := range cluster.Nodes() {
		m := n.Metrics()
		fmt.Printf("  %-10s emits=%d consumes=%d tx=%d rx=%d local=%d backpressure=%d\n",
			n.Name(), m.Emits, m.Consumes, m.TxMessages, m.RxMessages,
			m.LocalDeliveries, m.EmitBackpressure)
		if m.StageSend.Count+m.StageRecv.Count > 0 {
			fmt.Printf("  %-10s sampled wall-clock p99: pickup=%v dwell=%v send=%v proc=%v recv=%v (samples: send=%d recv=%d)\n",
				n.Name(), m.EmitPickup.P99, m.SchedDwell.P99, m.StageSend.P99,
				m.StageProcessing.P99, m.StageRecv.P99, m.StageSend.Count, m.StageRecv.Count)
		}
	}

	fmt.Println("\n== runtime state after the demo ==")
	for _, n := range cluster.Nodes() {
		fmt.Print(n.Inspect())
	}
	return nil
}

// momDemo publishes sensor readings from the gateway; the edge DC and the
// bare node subscribe — each on the best technology its hardware has.
func momDemo(cluster *insane.Cluster) error {
	fmt.Println("\n== Lunar MoM: decentralized pub/sub ==")
	gw, err := mom.New(cluster.Node("sensor-gw"), insane.WithDatapath(insane.Fast))
	if err != nil {
		return err
	}
	defer gw.Close()
	fmt.Printf("  sensor-gw publishes over %s\n", gw.Technology())

	var received atomic.Int64
	for _, name := range []string{"edge-dc", "bare-node"} {
		sub, err := mom.New(cluster.Node(name), insane.WithDatapath(insane.Fast))
		if err != nil {
			return err
		}
		defer sub.Close()
		node := name
		tech := sub.Technology()
		err = sub.Subscribe("plant/line1/temp", func(payload []byte, m mom.Meta) {
			received.Add(1)
			fmt.Printf("  %-10s got %q (stream tech %s) one-way %v (send %v / net %v / recv %v / proc %v)\n",
				node, payload, tech, m.Latency,
				m.Stages.Send, m.Stages.Network, m.Stages.Recv, m.Stages.Processing)
		})
		if err != nil {
			return err
		}
	}
	waitFor(func() bool {
		return cluster.Node("sensor-gw").SubscriberCount(mom.TopicChannel("plant/line1/temp")) >= 2
	})

	for i := 0; i < 3; i++ {
		msg := fmt.Sprintf("23.%d C", i)
		if err := gw.Publish("plant/line1/temp", []byte(msg)); err != nil {
			return err
		}
	}
	waitFor(func() bool { return received.Load() >= 6 })
	fmt.Printf("  downgrades on sensor-gw: %d (bare-node has no DPDK plane)\n",
		cluster.Node("sensor-gw").Stats().TechDowngrades)
	return nil
}

// streamingDemo pushes three raw HD frames from the gateway camera to the
// edge DC.
func streamingDemo(cluster *insane.Cluster) error {
	fmt.Println("\n== Lunar Streaming: raw HD frames ==")
	client, err := streaming.Connect(cluster.Node("edge-dc"), "cam0", insane.WithDatapath(insane.Fast))
	if err != nil {
		return err
	}
	defer client.Close()
	waitFor(func() bool {
		return cluster.Node("sensor-gw").SubscriberCount(streaming.StreamChannel("cam0")) >= 1
	})
	server, err := streaming.OpenServer(cluster.Node("sensor-gw"), "cam0", insane.WithDatapath(insane.Fast))
	if err != nil {
		return err
	}
	defer server.Close()

	frame := make([]byte, 2_760_000) // HD raw RGB (Table 4)
	for i := range frame {
		frame[i] = byte(i)
	}
	for i := 0; i < 3; i++ {
		frags, err := server.SendFrame(frame)
		if err != nil {
			return err
		}
		got, err := client.NextFrame(10 * time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("  frame %d: %d fragments, %.2f MB reassembled, per-fragment one-way %v (send %v / net %v / recv %v / proc %v)\n",
			got.ID, frags, float64(len(got.Data))/1e6, got.Latency,
			got.Stages.Send, got.Stages.Network, got.Stages.Recv, got.Stages.Processing)
	}
	return nil
}

// waitFor polls a condition with a 5s deadline.
func waitFor(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
}
