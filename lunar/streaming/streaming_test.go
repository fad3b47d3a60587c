package streaming

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

func cluster(t *testing.T, spec insane.NodeSpec) *insane.Cluster {
	t.Helper()
	a, b := spec, spec
	a.Name, b.Name = "camera", "analyzer"
	c, err := insane.NewCluster(insane.ClusterOptions{Nodes: []insane.NodeSpec{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// pattern fills a deterministic test frame.
func pattern(size int) []byte {
	f := make([]byte, size)
	for i := range f {
		f[i] = byte(i*31 + i/257)
	}
	return f
}

func connectPair(t *testing.T, c *insane.Cluster, name string, opts insane.Options) (*Server, *Client) {
	t.Helper()
	client, err := Connect(c.Node("analyzer"), name, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	// Wait until the server node learns the client's subscription.
	deadline := time.Now().Add(2 * time.Second)
	for c.Node("camera").SubscriberCount(StreamChannel(name)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream subscription not learned")
		}
		time.Sleep(100 * time.Microsecond)
	}
	server, err := OpenServer(c.Node("camera"), name, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return server, client
}

func TestSingleFragmentFrame(t *testing.T) {
	c := cluster(t, insane.NodeSpec{DPDK: true})
	srv, cli := connectPair(t, c, "cam0", insane.Options{Datapath: insane.Fast})
	frame := pattern(1000)
	n, err := srv.SendFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("fragments = %d, want 1", n)
	}
	got, err := cli.NextFrame(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, frame) {
		t.Error("frame corrupted")
	}
	if got.Fragments != 1 || got.Latency <= 0 {
		t.Errorf("frame meta = %+v", got)
	}
}

func TestMultiFragmentReassembly(t *testing.T) {
	c := cluster(t, insane.NodeSpec{DPDK: true})
	srv, cli := connectPair(t, c, "cam1", insane.Options{Datapath: insane.Fast})
	// ~5.5 fragments.
	frame := pattern(49_000)
	n, err := srv.SendFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(frame) + MaxFragPayload - 1) / MaxFragPayload; n != want {
		t.Errorf("fragments = %d, want %d", n, want)
	}
	got, err := cli.NextFrame(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, frame) {
		t.Error("reassembled frame corrupted")
	}
	if cli.Dropped() != 0 {
		t.Errorf("%d frames given up incomplete on a lossless link", cli.Dropped())
	}
}

func TestHDFrameOverSlowPath(t *testing.T) {
	if testing.Short() {
		t.Skip("HD frame in -short mode")
	}
	c := cluster(t, insane.NodeSpec{})
	srv, cli := connectPair(t, c, "cam2", insane.Options{Datapath: insane.Slow})
	// A genuine HD raw RGB frame from Table 4 (2.76 MB, 311 fragments).
	frame := pattern(2_760_000)
	if _, err := srv.SendFrame(frame); err != nil {
		t.Fatal(err)
	}
	got, err := cli.NextFrame(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, frame) {
		t.Error("HD frame corrupted")
	}
}

func TestConsecutiveFrames(t *testing.T) {
	c := cluster(t, insane.NodeSpec{DPDK: true})
	srv, cli := connectPair(t, c, "cam3", insane.Options{Datapath: insane.Fast})
	for i := 0; i < 5; i++ {
		frame := pattern(20_000 + i)
		if _, err := srv.SendFrame(frame); err != nil {
			t.Fatal(err)
		}
		got, err := cli.NextFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got.Data, frame) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

// cannedSource serves a fixed list of frames.
type cannedSource struct {
	frames [][]byte
	i      int
}

func (s *cannedSource) GetFrame() ([]byte, error) {
	if s.i >= len(s.frames) {
		return nil, errors.New("out of frames")
	}
	f := s.frames[s.i]
	s.i++
	return f, nil
}

func (s *cannedSource) WaitNext() bool { return s.i < len(s.frames) }

func TestServerLoop(t *testing.T) {
	c := cluster(t, insane.NodeSpec{DPDK: true})
	srv, cli := connectPair(t, c, "cam4", insane.Options{Datapath: insane.Fast})
	src := &cannedSource{frames: [][]byte{pattern(10_000), pattern(12_000), pattern(9_000)}}
	if err := srv.Loop(src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cli.NextFrame(5 * time.Second); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

func TestClosedServerAndClient(t *testing.T) {
	c := cluster(t, insane.NodeSpec{})
	srv, cli := connectPair(t, c, "cam5", insane.Options{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SendFrame([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send on closed server = %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.NextFrame(10 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Errorf("NextFrame on closed client = %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestEmptyFrameIsOneFragment(t *testing.T) {
	c := cluster(t, insane.NodeSpec{})
	srv, cli := connectPair(t, c, "cam6", insane.Options{})
	n, err := srv.SendFrame(nil)
	if err != nil {
		t.Fatalf("empty frame rejected: %v", err)
	}
	if n != 1 {
		t.Errorf("fragments = %d, want 1 (empty frame still announces itself)", n)
	}
	got, err := cli.NextFrame(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 0 {
		t.Errorf("empty frame delivered %d bytes", len(got.Data))
	}
}

func TestStreamChannelNamespace(t *testing.T) {
	if StreamChannel("a") == StreamChannel("b") {
		t.Error("trivial collision")
	}
	if StreamChannel("x") < 0x2000 {
		t.Error("channel id outside streaming namespace")
	}
}

// TestLossyLinkDropsFramesButRecovers runs the stream over a lossy fabric:
// frames missing fragments must be dropped (best effort, §5.2), while
// complete frames keep flowing.
func TestLossyLinkDropsFramesButRecovers(t *testing.T) {
	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "camera", DPDK: true},
			{Name: "analyzer", DPDK: true},
		},
		LossRate: 0.02,
		Seed:     77,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Client first (so the SUB has a chance over the lossy control plane;
	// retry until it lands).
	cli, err := Connect(c.Node("analyzer"), "lossy", insane.Options{Datapath: insane.Fast})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	deadline := time.Now().Add(3 * time.Second)
	for c.Node("camera").SubscriberCount(StreamChannel("lossy")) == 0 {
		if time.Now().After(deadline) {
			t.Skip("subscription lost on lossy link")
		}
		extra, err := Connect(c.Node("analyzer"), "lossy", insane.Options{Datapath: insane.Fast})
		if err == nil {
			extra.Close()
		}
		time.Sleep(time.Millisecond)
	}
	srv, err := OpenServer(c.Node("camera"), "lossy", insane.Options{Datapath: insane.Fast})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const frames = 30
	frame := pattern(60_000) // 7 fragments each: ~13% of frames lose one
	for i := 0; i < frames; i++ {
		if _, err := srv.SendFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	complete := 0
	for {
		f, err := cli.NextFrame(300 * time.Millisecond)
		if err != nil {
			break
		}
		if !bytes.Equal(f.Data, frame) {
			t.Fatal("a delivered frame was corrupted")
		}
		complete++
	}
	if complete == 0 {
		t.Fatal("no frame survived a 2% lossy link")
	}
	if complete == frames {
		t.Log("all frames survived; loss landed between frames") // acceptable
	}
	t.Logf("complete frames: %d of %d (given up incomplete: %d)", complete, frames, cli.Dropped())
}

// TestStreamingOverRDMA runs the framework over the RDMA plane: the
// multi-fragment load exercises the receive-credit refill path of the
// verbs plugin.
func TestStreamingOverRDMA(t *testing.T) {
	c := cluster(t, insane.NodeSpec{RDMA: true})
	srv, cli := connectPair(t, c, "cam-rdma", insane.Options{Datapath: insane.Fast})
	if srv.Technology() != "rdma" {
		t.Fatalf("fast stream on RDMA nodes mapped to %s", srv.Technology())
	}
	frame := pattern(120_000) // 14 fragments
	if _, err := srv.SendFrame(frame); err != nil {
		t.Fatal(err)
	}
	got, err := cli.NextFrame(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, frame) {
		t.Error("frame corrupted over RDMA")
	}
}

// TestStreamingHeterogeneousNodes streams from a DPDK camera to a
// kernel-only analyzer: the runtime downgrades transparently, the
// application code is identical.
func TestStreamingHeterogeneousNodes(t *testing.T) {
	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{
			{Name: "camera", DPDK: true},
			{Name: "analyzer"}, // no acceleration at all
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := Connect(c.Node("analyzer"), "hetero", insane.Options{Datapath: insane.Fast})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	deadline := time.Now().Add(2 * time.Second)
	for c.Node("camera").SubscriberCount(StreamChannel("hetero")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription not learned")
		}
		time.Sleep(100 * time.Microsecond)
	}
	srv, err := OpenServer(c.Node("camera"), "hetero", insane.Options{Datapath: insane.Fast})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Technology() != "dpdk" {
		t.Fatalf("camera stream = %s, want dpdk", srv.Technology())
	}
	frame := pattern(30_000)
	if _, err := srv.SendFrame(frame); err != nil {
		t.Fatal(err)
	}
	got, err := cli.NextFrame(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, frame) {
		t.Error("frame corrupted across heterogeneous planes")
	}
	if c.Node("camera").Stats().TechDowngrades == 0 {
		t.Error("downgrade not counted")
	}
}
