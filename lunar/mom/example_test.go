package mom_test

import (
	"fmt"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/lunar/mom"
)

// Example shows the two-primitive Lunar MoM surface the paper highlights:
// lunar_publish / lunar_subscribe, with INSANE doing everything else.
func Example() {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "publisher", DPDK: true},
			{Name: "subscriber", DPDK: true},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cluster.Close()

	sub, _ := mom.New(cluster.Node("subscriber"), insane.WithDatapath(insane.Fast))
	defer sub.Close()
	done := make(chan struct{})
	sub.Subscribe("plant/line1/temp", func(payload []byte, m mom.Meta) {
		fmt.Printf("got %s on %s\n", payload, m.Topic)
		close(done)
	})

	pub, _ := mom.New(cluster.Node("publisher"), insane.WithDatapath(insane.Fast))
	defer pub.Close()
	for cluster.Node("publisher").SubscriberCount(mom.TopicChannel("plant/line1/temp")) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	pub.Publish("plant/line1/temp", []byte("23.5C"))
	<-done
	// Output:
	// got 23.5C on plant/line1/temp
}
