// Camera streaming: the industrial image-inspection scenario of §7.2 on
// Lunar Streaming. A production-line camera streams raw Full-HD frames to
// an analysis node; the framework fragments each frame into jumbo-sized
// chunks and reassembles it on arrival.
//
// Run with:
//
//	go run ./examples/camera-streaming
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/lunar/streaming"
)

// frameCount is how many frames the camera produces, one every
// frameInterval (30 fps). A frame is 699 jumbo fragments: sent back to
// back, five of them would outrun the receiver's jumbo pool, whose drops
// are best effort by design (§5.2).
const (
	frameCount    = 5
	frameInterval = time.Second / 30
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// camera produces synthetic raw RGB frames (Full HD: 6.22 MB, Table 4)
// at its frame rate.
type camera struct {
	produced int
	frame    []byte
	next     time.Time
}

func newCamera() *camera {
	f := make([]byte, 6_220_000)
	for i := range f {
		f[i] = byte(i * 7)
	}
	return &camera{frame: f}
}

// GetFrame returns the next captured frame (get_frame in the paper),
// waiting for the camera to capture it.
func (c *camera) GetFrame() ([]byte, error) {
	if c.next.IsZero() {
		c.next = time.Now()
	}
	time.Sleep(time.Until(c.next))
	c.next = c.next.Add(frameInterval)
	c.produced++
	return c.frame, nil
}

// WaitNext reports whether another frame will come (wait_next).
func (c *camera) WaitNext() bool { return c.produced < frameCount }

func run() error {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "camera-node", DPDK: true},
			{Name: "analysis-node", DPDK: true},
		},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	client, err := streaming.Connect(cluster.Node("analysis-node"), "line1-cam",
		insane.Options{Datapath: insane.Fast})
	if err != nil {
		return err
	}
	defer client.Close()

	// Let the camera node learn the client's subscription.
	for cluster.Node("camera-node").SubscriberCount(streaming.StreamChannel("line1-cam")) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	server, err := streaming.OpenServer(cluster.Node("camera-node"), "line1-cam",
		insane.Options{Datapath: insane.Fast})
	if err != nil {
		return err
	}
	defer server.Close()
	fmt.Printf("streaming over %q\n", server.Technology())

	// Drive the paper's server loop in the background.
	errc := make(chan error, 1)
	go func() { errc <- server.Loop(newCamera()) }()

	start := time.Now()
	for i := 0; i < frameCount; i++ {
		frame, err := client.NextFrame(30 * time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("frame %d: %.2f MB in %d fragments, per-fragment one-way %v\n",
			frame.ID, float64(len(frame.Data))/1e6, frame.Fragments, frame.Latency)
	}
	elapsed := time.Since(start)
	fmt.Printf("\nmoved %d full-HD frames (%.1f MB) through the middleware in %v wall time\n",
		frameCount, float64(frameCount)*6.22, elapsed.Round(time.Millisecond))
	fmt.Printf("fragments dropped for lack of receive memory: %d\n",
		cluster.Node("analysis-node").Metrics().DroppedRxAlloc)
	return <-errc
}
