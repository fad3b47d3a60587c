package experiments

import (
	"fmt"
	"time"

	"github.com/insane-mw/insane/internal/bench"
	"github.com/insane-mw/insane/internal/demikernel"
	"github.com/insane-mw/insane/internal/experiments/apps"
	"github.com/insane-mw/insane/internal/model"
)

// demikernelPingPong runs the echo benchmark over a Demikernel variant
// and returns the accumulated virtual RTTs.
func demikernelPingPong(v demikernel.Variant, tb model.Testbed, payload, rounds int) ([]time.Duration, error) {
	env, err := apps.NewEnv(tb)
	if err != nil {
		return nil, err
	}
	mk := func(portA bool) (*demikernel.LibOS, demikernel.QD, error) {
		port, local, remote := env.PortA, env.AddrA, env.AddrB
		if !portA {
			port, local, remote = env.PortB, env.AddrB, env.AddrA
		}
		l, err := demikernel.New(v, demikernel.Config{
			Port: port, Resolver: env.Net.Resolver(), Testbed: tb,
		})
		if err != nil {
			return nil, 0, err
		}
		qd, err := l.Socket()
		if err != nil {
			return nil, 0, err
		}
		if err := l.Bind(qd, local); err != nil {
			return nil, 0, err
		}
		if err := l.Connect(qd, remote); err != nil {
			return nil, 0, err
		}
		return l, qd, nil
	}
	client, cqd, err := mk(true)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	server, sqd, err := mk(false)
	if err != nil {
		return nil, err
	}
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			req, err := server.Pop(sqd, 5*time.Second)
			if err != nil {
				done <- err
				return
			}
			if err := server.PushAt(sqd, req.Payload, req.Breakdown); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	msg := make([]byte, payload)
	rtts := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		if err := client.Push(cqd, msg); err != nil {
			return nil, err
		}
		pong, err := client.Pop(cqd, 5*time.Second)
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, pong.Breakdown.Total())
	}
	if err := <-done; err != nil {
		return nil, err
	}
	return rtts, nil
}

// fig7Paper holds the paper's average RTT anchors (64B) where stated.
var fig7Paper = map[string]map[string]string{
	model.Local.Name: {
		"Blocking UDP Socket":     "13.34",
		"Non-Blocking UDP Socket": "12.58",
		"Catnap":                  "13.66",
		"INSANE slow":             "~13.6",
		"Catnip":                  "4.26",
		"INSANE fast":             "4.95",
		"Raw DPDK":                "3.44",
	},
	model.Cloud.Name: {
		"Blocking UDP Socket":     "23.27",
		"Non-Blocking UDP Socket": "21.33",
		"Catnap":                  "~23.9",
		"INSANE slow":             "~25.7",
		"Catnip":                  "~7.4",
		"INSANE fast":             "10.43",
		"Raw DPDK":                "6.55",
	},
}

// runFig7 measures the full system comparison at 64 B on one testbed.
func runFig7(id, title string, tb model.Testbed, cfg RunConfig) (Report, error) {
	rounds := cfg.rounds()
	const payload = 64

	cluster, err := latencyCluster(tb)
	if err != nil {
		return Report{}, err
	}
	defer cluster.Close()

	measure := map[string]func() ([]time.Duration, error){
		"Blocking UDP Socket": func() ([]time.Duration, error) {
			env, err := apps.NewEnv(tb)
			if err != nil {
				return nil, err
			}
			return apps.UDPPingPong(env, payload, rounds, true), nil
		},
		"Non-Blocking UDP Socket": func() ([]time.Duration, error) {
			env, err := apps.NewEnv(tb)
			if err != nil {
				return nil, err
			}
			return apps.UDPPingPong(env, payload, rounds, false), nil
		},
		"Catnap": func() ([]time.Duration, error) {
			return demikernelPingPong(demikernel.Catnap, tb, payload, rounds)
		},
		"INSANE slow": func() ([]time.Duration, error) {
			return apps.InsanePingPong(cluster, payload, rounds, false), nil
		},
		"Catnip": func() ([]time.Duration, error) {
			return demikernelPingPong(demikernel.Catnip, tb, payload, rounds)
		},
		"INSANE fast": func() ([]time.Duration, error) {
			return apps.InsanePingPong(cluster, payload, rounds, true), nil
		},
		"Raw DPDK": func() ([]time.Duration, error) {
			env, err := apps.NewEnv(tb)
			if err != nil {
				return nil, err
			}
			return apps.DPDKPingPong(env, payload, rounds), nil
		},
	}

	order := []string{
		"Blocking UDP Socket", "Non-Blocking UDP Socket", "Catnap",
		"INSANE slow", "Catnip", "INSANE fast", "Raw DPDK",
	}
	t := bench.Table{
		Title:  fmt.Sprintf("Average RTT, 64B payload — %s testbed (µs)", tb.Name),
		Header: []string{"System", "Avg RTT", "Paper"},
	}
	chart := bench.Chart{Title: "as bars", Unit: "µs"}
	for _, name := range order {
		samples, err := measure[name]()
		if err != nil {
			return Report{}, fmt.Errorf("%s: %s: %w", id, name, err)
		}
		if len(samples) == 0 {
			return Report{}, fmt.Errorf("%s: %s produced no samples", id, name)
		}
		s := bench.Summarize(samples)
		t.AddRow(name, bench.Micros(s.Mean), fig7Paper[tb.Name][name])
		chart.Add(name, float64(s.Mean.Nanoseconds())/1000)
	}
	return Report{
		ID: id, Title: title,
		Tables: []bench.Table{t},
		Notes: []string{
			chart.String(),
			fmt.Sprintf("%d rounds per system; the paper reports averages over 1M messages", rounds),
		},
	}, nil
}

// Fig7a reproduces Fig. 7a: all seven systems on the local testbed.
func Fig7a(cfg RunConfig) (Report, error) {
	return runFig7("fig7a", "Fig. 7a — average RTT of all systems (local, 64B)", model.Local, cfg)
}

// Fig7b reproduces Fig. 7b: all seven systems on the cloud testbed.
func Fig7b(cfg RunConfig) (Report, error) {
	return runFig7("fig7b", "Fig. 7b — average RTT of all systems (cloud, 64B)", model.Cloud, cfg)
}
