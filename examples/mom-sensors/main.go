// MoM sensors: a factory-floor data-distribution scenario on Lunar MoM
// (§7.1). Three sensor gateways publish readings on per-line topics; a
// quality-control service subscribes to all lines; a dashboard subscribes
// to one. Dissemination, fanout and technology selection are all INSANE's
// job.
//
// Run with:
//
//	go run ./examples/mom-sensors
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/lunar/mom"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "gw-line1", DPDK: true},
			{Name: "gw-line2", DPDK: true},
			{Name: "qc-service", DPDK: true, RDMA: true},
			{Name: "dashboard"}, // commodity box: kernel networking only
		},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Quality control consumes every production line, accelerated.
	qc, err := mom.New(cluster.Node("qc-service"), insane.WithDatapath(insane.Fast))
	if err != nil {
		return err
	}
	defer qc.Close()
	var qcSeen atomic.Int64
	for _, line := range []string{"line1", "line2"} {
		line := line
		if err := qc.Subscribe("plant/"+line+"/vibration", func(p []byte, m mom.Meta) {
			qcSeen.Add(1)
			fmt.Printf("[qc]        %s: %-18q one-way %v\n", line, p, m.Latency)
		}); err != nil {
			return err
		}
	}

	// The dashboard only watches line1, over plain kernel networking.
	dash, err := mom.New(cluster.Node("dashboard"), insane.WithDatapath(insane.Slow))
	if err != nil {
		return err
	}
	defer dash.Close()
	var dashSeen atomic.Int64
	if err := dash.Subscribe("plant/line1/vibration", func(p []byte, m mom.Meta) {
		dashSeen.Add(1)
		fmt.Printf("[dashboard] line1: %-18q one-way %v\n", p, m.Latency)
	}); err != nil {
		return err
	}

	// Gateways publish three readings each.
	for _, gwName := range []string{"gw-line1", "gw-line2"} {
		gw, err := mom.New(cluster.Node(gwName), insane.WithDatapath(insane.Fast))
		if err != nil {
			return err
		}
		defer gw.Close()
		line := gwName[3:] // "line1" / "line2"
		topic := "plant/" + line + "/vibration"
		// Wait for subscriptions to propagate to this gateway.
		want := 1
		if line == "line1" {
			want = 2 // qc + dashboard
		}
		deadline := time.Now().Add(2 * time.Second)
		for cluster.Node(gwName).SubscriberCount(mom.TopicChannel(topic)) < want &&
			time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		for i := 0; i < 3; i++ {
			reading := fmt.Sprintf("%s: %0.2f mm/s", line, 1.1+float64(i)/10)
			if err := gw.Publish(topic, []byte(reading)); err != nil {
				return err
			}
		}
	}

	// line1 → qc + dashboard (3 each), line2 → qc (3): 9 deliveries.
	deadline := time.Now().Add(3 * time.Second)
	for qcSeen.Load()+dashSeen.Load() < 9 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("\ndeliveries: qc=%d dashboard=%d\n", qcSeen.Load(), dashSeen.Load())
	return nil
}
