package streaming_test

import (
	"fmt"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/lunar/streaming"
)

// Example streams one frame through the fragmentation/reassembly path.
func Example() {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "camera", DPDK: true},
			{Name: "analyzer", DPDK: true},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cluster.Close()

	client, _ := streaming.Connect(cluster.Node("analyzer"), "cam0",
		insane.WithDatapath(insane.Fast))
	defer client.Close()
	for cluster.Node("camera").SubscriberCount(streaming.StreamChannel("cam0")) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	server, _ := streaming.OpenServer(cluster.Node("camera"), "cam0",
		insane.WithDatapath(insane.Fast))
	defer server.Close()

	frame := make([]byte, 20_000)
	frags, _ := server.SendFrame(frame)
	got, _ := client.NextFrame(5 * time.Second)
	fmt.Printf("frame of %d bytes arrived in %d fragments\n", len(got.Data), frags)
	// Output:
	// frame of 20000 bytes arrived in 3 fragments
}
