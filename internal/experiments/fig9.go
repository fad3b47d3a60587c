package experiments

import (
	"fmt"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/internal/bench"
	"github.com/insane-mw/insane/internal/experiments/apps"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/refsys"
	"github.com/insane-mw/insane/internal/sim"
	"github.com/insane-mw/insane/lunar/mom"
)

// momPingPong measures Lunar MoM round trips as the sum of the two
// one-way latencies (ping topic out, pong topic back), over the real
// middleware.
func momPingPong(fast bool, payload, rounds int) ([]time.Duration, error) {
	cluster, err := latencyCluster(model.Local)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	opts := insane.Options{Datapath: insane.Slow}
	if fast {
		opts.Datapath = insane.Fast
	}
	pub, err := mom.New(cluster.Nodes()[0], opts)
	if err != nil {
		return nil, err
	}
	defer pub.Close()
	echo, err := mom.New(cluster.Nodes()[1], opts)
	if err != nil {
		return nil, err
	}
	defer echo.Close()

	const pingTopic, pongTopic = "bench/ping", "bench/pong"
	pingLat := make(chan time.Duration, rounds)
	pongLat := make(chan time.Duration, rounds)

	// The echo participant republishes every ping on the pong topic.
	if err := echo.Subscribe(pingTopic, func(payload []byte, m mom.Meta) {
		pingLat <- m.Latency
		_ = echo.Publish(pongTopic, payload)
	}); err != nil {
		return nil, err
	}
	if err := pub.Subscribe(pongTopic, func(_ []byte, m mom.Meta) {
		pongLat <- m.Latency
	}); err != nil {
		return nil, err
	}
	waitTopic(cluster.Nodes()[0], pingTopic)
	waitTopic(cluster.Nodes()[1], pongTopic)

	msg := make([]byte, payload)
	rtts := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		if err := pub.Publish(pingTopic, msg); err != nil {
			return nil, err
		}
		select {
		case l1 := <-pingLat:
			select {
			case l2 := <-pongLat:
				rtts = append(rtts, l1+l2)
			case <-time.After(5 * time.Second):
				return nil, fmt.Errorf("mom ping-pong: pong timeout at round %d", i)
			}
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("mom ping-pong: ping timeout at round %d", i)
		}
	}
	return rtts, nil
}

// waitTopic blocks until a node learns a remote subscription for a topic.
func waitTopic(n *insane.Node, topic string) {
	deadline := time.Now().Add(2 * time.Second)
	for n.SubscriberCount(mom.TopicChannel(topic)) == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

// refsysPingPong measures the reference middleware round trip with the
// virtual clock carried through the echo.
func refsysPingPong(f refsys.Flavor, payload, rounds int) ([]time.Duration, error) {
	env, err := newRefsysEnv(f)
	if err != nil {
		return nil, err
	}
	defer env.a.Close()
	defer env.b.Close()

	rtts := make([]time.Duration, 0, rounds)
	var lastRTT time.Duration
	env.b.Subscribe("ping", func(s refsys.Sample) {
		_ = env.b.PublishAt("pong", s.Payload, s.Breakdown)
	})
	env.a.Subscribe("pong", func(s refsys.Sample) {
		lastRTT = s.Breakdown.Total()
	})

	msg := make([]byte, payload)
	for i := 0; i < rounds; i++ {
		if err := env.a.Publish("ping", msg); err != nil {
			return nil, err
		}
		if env.b.Spin(1, 2*time.Second) != 1 {
			return nil, fmt.Errorf("refsys: ping lost at round %d", i)
		}
		if env.a.Spin(1, 2*time.Second) != 1 {
			return nil, fmt.Errorf("refsys: pong lost at round %d", i)
		}
		rtts = append(rtts, lastRTT)
	}
	return rtts, nil
}

// refsysEnv wires two participants over a fabric.
type refsysEnv struct{ a, b *refsys.Participant }

func newRefsysEnv(f refsys.Flavor) (*refsysEnv, error) {
	env, err := apps.NewEnv(model.Local)
	if err != nil {
		return nil, err
	}
	a, err := refsys.NewParticipant(f, refsys.Config{
		Port: env.PortA, Resolver: env.Net.Resolver(), Local: env.AddrA,
		Peers: []netstack.Endpoint{env.AddrB}, Testbed: model.Local, Seed: 11,
	})
	if err != nil {
		return nil, err
	}
	b, err := refsys.NewParticipant(f, refsys.Config{
		Port: env.PortB, Resolver: env.Net.Resolver(), Local: env.AddrB,
		Peers: []netstack.Endpoint{env.AddrA}, Testbed: model.Local, Seed: 22,
	})
	if err != nil {
		a.Close()
		return nil, err
	}
	return &refsysEnv{a: a, b: b}, nil
}

// fig9Payloads are the Fig. 9 message sizes.
var fig9Payloads = []int{64, 256, 1024}

// Fig9a reproduces the MoM latency comparison.
func Fig9a(cfg RunConfig) (Report, error) {
	rounds := cfg.rounds()
	if rounds > 100 {
		rounds = 100 // refsys echoes are slower to drive; shape needs less
	}
	t := bench.Table{
		Title:  "MoM RTT (µs) for increasing payload sizes (local)",
		Header: append([]string{"System"}, payloadHeaders(fig9Payloads)...),
	}
	type mrow struct {
		name    string
		measure func(payload int) ([]time.Duration, error)
	}
	rows := []mrow{
		{"Lunar fast", func(p int) ([]time.Duration, error) { return momPingPong(true, p, rounds) }},
		{"Lunar slow", func(p int) ([]time.Duration, error) { return momPingPong(false, p, rounds) }},
		{"Cyclone DDS", func(p int) ([]time.Duration, error) { return refsysPingPong(refsys.FlavorCyclone, p, rounds) }},
		{"ZeroMQ UDP", func(p int) ([]time.Duration, error) { return refsysPingPong(refsys.FlavorZeroMQ, p, rounds) }},
	}
	for _, r := range rows {
		cells := []string{r.name}
		for _, p := range fig9Payloads {
			samples, err := r.measure(p)
			if err != nil {
				return Report{}, fmt.Errorf("fig9a: %s: %w", r.name, err)
			}
			cells = append(cells, bench.Micros(bench.Summarize(samples).Median))
		}
		t.AddRow(cells...)
	}
	return Report{
		ID: "fig9a", Title: "Fig. 9a — latency of MoMs for increasing payload sizes",
		Tables: []bench.Table{t},
		Notes: []string{
			"Lunar adds ns-scale overhead to INSANE; Cyclone ≈ +45% over blocking-socket systems with higher variability; ZeroMQ ≈ Cyclone + 20µs (paper §7.1)",
			fmt.Sprintf("%d rounds per cell over the real middleware/reference implementations", rounds),
		},
	}, nil
}

// Fig9b reproduces the MoM throughput comparison: Lunar over the
// simulated INSANE pipelines (the MoM layer runs on application cores and
// does not shift the bottleneck), Cyclone from its marshaling-bound
// analytic model. ZeroMQ is excluded, as in the paper ("unstable
// performance").
func Fig9b(cfg RunConfig) (Report, error) {
	jobs := cfg.jobs()
	t := bench.Table{
		Title:  "MoM throughput (Gbps) for increasing payload sizes (local)",
		Header: append([]string{"System"}, payloadHeaders(fig9Payloads)...),
	}
	paper := map[string][]string{
		"Lunar fast":  {"1.44", "5.72", "22.82"},
		"Lunar slow":  {"0.54", "3.60", "10.51"},
		"Cyclone DDS": {"0.37", "1.49", "4.69"},
	}
	addRow := func(name string, f func(p int) float64) {
		cells := []string{name}
		for _, p := range fig9Payloads {
			cells = append(cells, gbps(f(p)))
		}
		t.AddRow(cells...)
		t.AddRow(append([]string{"  (paper)"}, paper[name]...)...)
	}
	addRow("Lunar fast", func(p int) float64 {
		return float64(sim.SystemGoodput(model.SysInsaneFast, p, jobs, model.Local).Goodput(p))
	})
	addRow("Lunar slow", func(p int) float64 {
		return float64(sim.SystemGoodput(model.SysInsaneSlow, p, jobs, model.Local).Goodput(p))
	})
	addRow("Cyclone DDS", func(p int) float64 {
		return float64(refsys.ModelThroughput(refsys.FlavorCyclone, p, model.Local))
	})
	return Report{
		ID: "fig9b", Title: "Fig. 9b — throughput of MoMs for increasing payload sizes",
		Tables: []bench.Table{t},
		Notes: []string{
			"shape check: Lunar fast ≫ Lunar slow ≳ Cyclone at every size; DPDK batching gives Lunar fast its margin",
		},
	}, nil
}
