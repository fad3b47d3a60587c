package refsys

import (
	"bytes"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/timebase"
)

func pair(t *testing.T, f Flavor) (*Participant, *Participant) {
	t.Helper()
	net := fabric.New(5)
	ipA, ipB := netstack.IPv4{10, 8, 0, 1}, netstack.IPv4{10, 8, 0, 2}
	pa, _ := net.AddHost("a", ipA)
	pb, _ := net.AddHost("b", ipB)
	if err := net.ConnectDirect(pa, pb, fabric.DefaultLink); err != nil {
		t.Fatal(err)
	}
	epA := netstack.Endpoint{IP: ipA, Port: 7400}
	epB := netstack.Endpoint{IP: ipB, Port: 7400}
	a, err := NewParticipant(f, Config{Port: pa, Resolver: net.Resolver(), Local: epA, Peers: []netstack.Endpoint{epB}, Testbed: model.Local, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewParticipant(f, Config{Port: pb, Resolver: net.Resolver(), Local: epB, Peers: []netstack.Endpoint{epA}, Testbed: model.Local, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestCostsHaveCategories: the middleware's own components name one of
// the four Fig. 6 stages; a sample's clock is its breakdown, and a cost
// with any other category would be charged to no stage.
func TestCostsHaveCategories(t *testing.T) {
	for _, c := range []model.Component{cycloneMarshal, cycloneUnmarshal, zmqQueueHop} {
		if c.Category < model.CatSend || c.Category > model.CatProcessing {
			t.Errorf("%q has category %d", c.Name, c.Category)
		}
	}
}

func TestCyclonePublishSubscribe(t *testing.T) {
	a, b := pair(t, FlavorCyclone)
	var got []Sample
	b.Subscribe("sensors/temp", func(s Sample) { got = append(got, s) })
	msg := []byte("23.5C")
	if err := a.Publish("sensors/temp", msg); err != nil {
		t.Fatal(err)
	}
	if n := b.Spin(1, 2*time.Second); n != 1 {
		t.Fatalf("dispatched %d samples, want 1", n)
	}
	if !bytes.Equal(got[0].Payload, msg) {
		t.Errorf("payload = %q", got[0].Payload)
	}
	// One-way ≈ blocking kernel path + marshal + unmarshal ≈ 9.7 µs ± jitter.
	if got[0].Breakdown.Total() < 7*time.Microsecond || got[0].Breakdown.Total() > 13*time.Microsecond {
		t.Errorf("cyclone one-way = %v, want ≈9.7µs", got[0].Breakdown.Total())
	}
}

func TestZeroMQSlowerThanCyclone(t *testing.T) {
	measure := func(f Flavor) time.Duration {
		a, b := pair(t, f)
		var lat time.Duration
		b.Subscribe("t", func(s Sample) { lat = s.Breakdown.Total() })
		if err := a.Publish("t", make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if b.Spin(1, 2*time.Second) != 1 {
			t.Fatal("no sample")
		}
		return lat
	}
	cy := measure(FlavorCyclone)
	zmq := measure(FlavorZeroMQ)
	// ZeroMQ adds ≈10 µs per direction.
	if zmq < cy+5*time.Microsecond {
		t.Errorf("zmq %v not clearly slower than cyclone %v", zmq, cy)
	}
}

func TestTopicFiltering(t *testing.T) {
	a, b := pair(t, FlavorCyclone)
	delivered := 0
	b.Subscribe("wanted", func(Sample) { delivered++ })
	if err := a.Publish("unwanted", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n := b.Spin(1, 100*time.Millisecond); n != 0 {
		t.Errorf("dispatched %d samples of an unsubscribed topic", n)
	}
	if delivered != 0 {
		t.Error("handler ran for foreign topic")
	}
}

func TestJitterVariability(t *testing.T) {
	a, b := pair(t, FlavorCyclone)
	var lats []time.Duration
	b.Subscribe("t", func(s Sample) { lats = append(lats, s.Breakdown.Total()) })
	for i := 0; i < 50; i++ {
		if err := a.Publish("t", make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Spin(50, 2*time.Second); n != 50 {
		t.Fatalf("dispatched %d of 50", n)
	}
	min, max := lats[0], lats[0]
	for _, l := range lats {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min < 200*time.Nanosecond {
		t.Errorf("jitter spread = %v, want visible variability", max-min)
	}
}

func TestModelRTTFig9a(t *testing.T) {
	// Cyclone ≈ +45% over blocking-socket systems: ~19.3 µs at 64 B.
	cy := ModelRTT(FlavorCyclone, 64, model.Local)
	if cy < 18*time.Microsecond || cy > 21*time.Microsecond {
		t.Errorf("cyclone model RTT = %v, want ≈19.3µs", cy)
	}
	// ZeroMQ ≈ Cyclone + 20 µs.
	zmq := ModelRTT(FlavorZeroMQ, 64, model.Local)
	if d := zmq - cy; d != 20*time.Microsecond {
		t.Errorf("zmq - cyclone = %v, want 20µs", d)
	}
}

func TestModelThroughputFig9b(t *testing.T) {
	gbps := func(payload int) float64 {
		return float64(ModelThroughput(FlavorCyclone, payload, model.Local)) / float64(timebase.Gbps)
	}
	if got := gbps(1024); got < 4.2 || got > 5.2 {
		t.Errorf("cyclone @1KB = %.2f Gbps, want ≈4.69", got)
	}
	if got := gbps(64); got < 0.25 || got > 0.45 {
		t.Errorf("cyclone @64B = %.2f Gbps, want ≈0.37", got)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewParticipant(Flavor(9), Config{}); err == nil {
		t.Error("bad flavor accepted")
	}
	if _, err := NewParticipant(FlavorCyclone, Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if FlavorCyclone.String() != "Cyclone DDS" || Flavor(9).String() != "unknown" {
		t.Error("Flavor.String wrong")
	}
	if TopicID("a") == TopicID("b") {
		t.Error("distinct topics hash equal")
	}
}

func TestSendfileModel(t *testing.T) {
	sf := NewSendfile(model.Local)
	// HD frame (2.76 MB): latency must exceed a 99 MB 8K frame's only by
	// the chunk count ratio, and FPS must be ordered by size.
	sizes := []int{2_760_000, 6_220_000, 11_600_000, 24_880_000, 99_530_000}
	prevLat := time.Duration(0)
	prevFPS := 1e18
	for _, size := range sizes {
		lat := sf.FrameLatency(size)
		fps := sf.FPS(size)
		if lat <= prevLat {
			t.Errorf("latency not increasing at %d", size)
		}
		if fps >= prevFPS {
			t.Errorf("FPS not decreasing at %d", size)
		}
		prevLat, prevFPS = lat, fps
	}
	// Goodput of the kernel path with jumbo chunks lands in the tens of
	// Gbps (sender-side zero copy, receive copy bound).
	g := float64(sf.Goodput()) / float64(timebase.Gbps)
	if g < 10 || g > 60 {
		t.Errorf("sendfile goodput = %.1f Gbps, implausible", g)
	}
	if sf.FPS(0) <= 0 {
		t.Error("zero-size frame FPS must be positive")
	}
}
