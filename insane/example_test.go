package insane_test

import (
	"fmt"
	"time"

	"github.com/insane-mw/insane/insane"
)

// Example shows the complete send/receive cycle of the INSANE API: QoS
// options instead of sockets, zero-copy buffers instead of writes.
func Example() {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "edge-1", DPDK: true},
			{Name: "edge-2", DPDK: true},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cluster.Close()

	rx, _ := cluster.Node("edge-2").InitSession()
	defer rx.Close()
	rxStream, _ := rx.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	sink, _ := rxStream.CreateSink(7, nil)

	tx, _ := cluster.Node("edge-1").InitSession()
	defer tx.Close()
	txStream, _ := tx.CreateStreamOpts(insane.WithDatapath(insane.Fast))
	fmt.Println("technology:", txStream.Technology())

	for cluster.Node("edge-1").SubscriberCount(7) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	src, _ := txStream.CreateSource(7)
	buf, _ := src.GetBuffer(32)
	n := copy(buf.Payload, "hello edge")
	src.Emit(buf, n)

	msg, _ := consumeWithin(sink, 2*time.Second)
	fmt.Printf("received: %s\n", msg.Payload)
	sink.Release(msg)
	// Output:
	// technology: dpdk
	// received: hello edge
}

// ExampleOption demonstrates the QoS mapping: the same Fast request maps
// to different technologies depending on the node's hardware, falling
// back to the kernel (with a warning) when nothing accelerated exists.
func ExampleOption() {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "rich", DPDK: true, XDP: true, RDMA: true},
			{Name: "frugal", DPDK: true, XDP: true},
			{Name: "bare"},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cluster.Close()

	show := func(node string, opts ...insane.Option) {
		sess, _ := cluster.Node(node).InitSession()
		defer sess.Close()
		st, _ := sess.CreateStreamOpts(opts...)
		fmt.Printf("%s: %s (fallback=%v)\n", node, st.Technology(), st.FellBack())
	}
	show("rich", insane.WithDatapath(insane.Fast))
	show("frugal", insane.WithDatapath(insane.Fast))
	show("frugal", insane.WithDatapath(insane.Fast), insane.WithResources(insane.Frugal))
	show("bare", insane.WithDatapath(insane.Fast))
	// Output:
	// rich: rdma (fallback=false)
	// frugal: dpdk (fallback=false)
	// frugal: xdp (fallback=false)
	// bare: kernel-udp (fallback=true)
}
