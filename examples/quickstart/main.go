// Quickstart: the smallest complete INSANE program — two edge nodes, one
// QoS-annotated stream, one zero-copy message each way.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/insane-mw/insane/insane"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A virtual edge deployment: both nodes have DPDK-capable NICs.
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "edge-1", DPDK: true},
			{Name: "edge-2", DPDK: true},
		},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Receiver: open a session, a fast stream, and a sink on channel 42.
	rxSess, err := cluster.Node("edge-2").InitSession()
	if err != nil {
		return err
	}
	defer rxSess.Close()
	rxStream, err := rxSess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	if err != nil {
		return err
	}
	sink, err := rxStream.CreateSink(42, nil)
	if err != nil {
		return err
	}

	// Sender: same stream options, a source on the same channel.
	txSess, err := cluster.Node("edge-1").InitSession()
	if err != nil {
		return err
	}
	defer txSess.Close()
	txStream, err := txSess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	if err != nil {
		return err
	}
	fmt.Printf("stream mapped to %q (fallback=%v)\n", txStream.Technology(), txStream.FellBack())

	// Wait until the subscription gossip reached the sender.
	for cluster.Node("edge-1").SubscriberCount(42) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	src, err := txStream.CreateSource(42)
	if err != nil {
		return err
	}

	// Zero-copy send: borrow a buffer, write in place, emit.
	buf, err := src.GetBuffer(64)
	if err != nil {
		return err
	}
	n := copy(buf.Payload, "hello, accelerated edge cloud")
	if _, err := src.Emit(buf, n); err != nil {
		src.Abort(buf)
		return err
	}

	// Zero-copy receive: consume, read, release.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	msg, err := sink.ConsumeContext(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("received %q on channel %d\n", msg.Payload, msg.Channel)
	fmt.Printf("one-way virtual latency: %v\n", msg.Latency)
	st := msg.Stages()
	fmt.Printf("  breakdown: send=%v network=%v recv=%v processing=%v\n",
		st.Send, st.Network, st.Recv, st.Processing)
	sink.Release(msg)
	return nil
}
