package experiments

import (
	"fmt"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/internal/bench"
	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/experiments/apps"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/sched"
	"github.com/insane-mw/insane/internal/timebase"
)

// AblationIPC quantifies the design decision the microkernel architecture
// pays for (§4): the client↔runtime IPC hop versus a library-OS design
// (Demikernel) versus the raw technology, at 64B.
func AblationIPC(RunConfig) (Report, error) {
	t := bench.Table{
		Title:  "Cost of the runtime IPC hop (RTT, 64B, local, µs)",
		Header: []string{"Design", "System", "RTT", "Delta vs raw"},
	}
	raw := model.Build(model.SysRawDPDK).RTT(64, model.Local)
	rows := []struct {
		design string
		sys    model.System
	}{
		{"raw technology", model.SysRawDPDK},
		{"library OS (no IPC)", model.SysCatnip},
		{"microkernel runtime (IPC)", model.SysInsaneFast},
	}
	for _, r := range rows {
		rtt := model.Build(r.sys).RTT(64, model.Local)
		t.AddRow(r.design, r.sys.String(), bench.Micros(rtt), bench.Micros(rtt-raw))
	}
	return Report{
		ID: "ablation-ipc", Title: "Ablation — IPC hop vs library OS",
		Tables: []bench.Table{t},
		Notes: []string{
			"the IPC hop buys Network Acceleration as a Service: multiple isolated applications share one datapath instance (§4, §8)",
		},
	}, nil
}

// AblationBatching toggles INSANE's opportunistic batching and shows its
// effect on throughput — without it, INSANE degrades to Catnip-like rates
// (the paper: 'when we do not adopt this technique ... Demikernel and
// INSANE perform in the same way').
func AblationBatching(RunConfig) (Report, error) {
	t := bench.Table{
		Title:  "Opportunistic batching ablation (INSANE fast goodput, Gbps)",
		Header: []string{"Payload", "Batching on (burst 32)", "Batching off (burst 1)", "Catnip (no batching)"},
	}
	p := model.Build(model.SysInsaneFast)
	catnip := model.Build(model.SysCatnip)
	for _, payload := range []int{1024, 4096, 8192} {
		on := timebase.Goodput(payload, p.Bottleneck(payload, model.DefaultBurst, model.Local))
		off := timebase.Goodput(payload, p.Bottleneck(payload, 1, model.Local))
		cat := timebase.Goodput(payload, catnip.Bottleneck(payload, 1, model.Local))
		t.AddRow(fmt.Sprintf("%dB", payload),
			gbps(float64(on)), gbps(float64(off)), gbps(float64(cat)))
	}
	return Report{
		ID: "ablation-batching", Title: "Ablation — opportunistic batching",
		Tables: []bench.Table{t},
		Notes:  []string{"batching never waits for a burst to fill, so ping-pong latency is unaffected (§6.2)"},
	}, nil
}

// AblationThreads compares the two polling-thread mappings of §5.3: one
// thread per datapath plugin versus one shared thread, on a node with all
// four technologies.
func AblationThreads(cfg RunConfig) (Report, error) {
	rounds := cfg.rounds() / 2
	if rounds < 20 {
		rounds = 20
	}
	run := func(shared bool, perPlugin int) (time.Duration, error) {
		spec := insane.NodeSpec{
			DPDK: true, XDP: true, RDMA: true,
			SharedPoller: shared, PollersPerPlugin: perPlugin,
		}
		a, b := spec, spec
		a.Name, b.Name = "n1", "n2"
		cluster, err := insane.NewCluster(insane.ClusterOptions{Nodes: []insane.NodeSpec{a, b}})
		if err != nil {
			return 0, err
		}
		defer cluster.Close()
		samples := insanePingPongVia(cluster, 64, rounds)
		if len(samples) == 0 {
			return 0, fmt.Errorf("no samples (shared=%v per=%d)", shared, perPlugin)
		}
		return bench.Summarize(samples).Median, nil
	}
	dedicated, err := run(false, 0)
	if err != nil {
		return Report{}, err
	}
	shared, err := run(true, 0)
	if err != nil {
		return Report{}, err
	}
	scaled, err := run(false, 2)
	if err != nil {
		return Report{}, err
	}
	t := bench.Table{
		Title:  "Polling-thread mapping (INSANE fast RTT, 64B, local)",
		Header: []string{"Mapping", "Threads", "RTT (µs)"},
	}
	t.AddRow("one thread per plugin", "4", bench.Micros(dedicated))
	t.AddRow("single shared thread", "1", bench.Micros(shared))
	t.AddRow("two threads per plugin (§8)", "8", bench.Micros(scaled))
	return Report{
		ID: "ablation-threads", Title: "Ablation — polling thread mapping",
		Tables: []bench.Table{t},
		Notes: []string{
			"virtual per-packet costs are identical; the shared mapping trades real CPU cores for slower drain scheduling under load (§5.3, §8)",
		},
	}, nil
}

// AblationTSN drives the 802.1Qbv shaper against plain FIFO under bulk
// cross traffic and reports the worst-case delay of the time-critical
// class — the deterministic-behaviour property the TSN QoS buys (§5.3).
//
// Load pattern: every 250µs cycle, 300 best-effort packets arrive at the
// cycle start and one class-7 packet arrives 10µs in; the egress drains
// one packet per µs (250 per cycle), so a best-effort backlog builds up.
// FIFO queues the critical packet behind that backlog; the shaper releases
// it in the protected window of its own cycle.
func AblationTSN(RunConfig) (Report, error) {
	gcl := sched.GCL{
		{Duration: 50 * time.Microsecond, Gates: 1 << 7},
		{Duration: 200 * time.Microsecond, Gates: 0x7F},
	}
	// The shaper's arm is fed time-sensitive traffic; the FIFO arm is fed
	// best effort of the one tenant, the paper's default FIFO strategy. The
	// queued element is its traffic class: all the experiment needs back, as
	// the scheduler reports the wait itself.
	tas, err := sched.NewEgress[uint8](gcl, nil)
	if err != nil {
		return Report{}, err
	}
	fifo, err := sched.NewEgress[uint8](gcl, nil)
	if err != nil {
		return Report{}, err
	}

	type result struct {
		worst, sum time.Duration
		n          int
	}
	measure := func(egress *sched.Egress[uint8], timeSensitive bool) result {
		var res result
		dst := make([]uint8, 1)
		waits := make([]time.Duration, 1)
		const cycleDur = 250 * time.Microsecond
		for cycle := 0; cycle < 40; cycle++ {
			base := timebase.VTime(cycle) * timebase.VTime(cycleDur)
			for i := 0; i < 300; i++ {
				egress.Enqueue(0, timeSensitive, 0, 0, 0, base)
			}
			critAt := base.Add(10 * time.Microsecond)
			injected := false
			for step := 0; step < 250; step++ {
				now := base.Add(time.Duration(step) * time.Microsecond)
				if !injected && step >= 10 {
					egress.Enqueue(7, timeSensitive, 0, 7, 0, critAt)
					injected = true
				}
				if egress.Dequeue(dst, waits, now) != 1 {
					continue
				}
				if dst[0] == 7 {
					wait := waits[0]
					if wait > res.worst {
						res.worst = wait
					}
					res.sum += wait
					res.n++
				}
			}
		}
		return res
	}
	tasRes := measure(tas, true)
	fifoRes := measure(fifo, false)

	t := bench.Table{
		Title:  "802.1Qbv time-aware shaper vs FIFO under bulk cross traffic",
		Header: []string{"Scheduler", "class-7 worst-case delay", "class-7 mean delay"},
	}
	mean := func(r result) time.Duration {
		if r.n == 0 {
			return 0
		}
		return r.sum / time.Duration(r.n)
	}
	t.AddRow("FIFO (default)", fifoRes.worst.String(), mean(fifoRes).String())
	t.AddRow("TAS 802.1Qbv", tasRes.worst.String(), mean(tasRes).String())
	notes := []string{
		"the shaper bounds the critical class's delay to its gate cycle; FIFO lets best-effort backlog delay it unboundedly (§5.3)",
	}
	if tasRes.worst >= fifoRes.worst {
		notes = append(notes, "WARNING: TAS did not improve worst-case delay")
	}
	if tasRes.worst > gcl.Cycle() {
		notes = append(notes, "WARNING: TAS worst case exceeds the gate cycle")
	}
	return Report{
		ID: "ablation-tsn", Title: "Ablation — FIFO vs TSN scheduling",
		Tables: []bench.Table{t},
		Notes:  notes,
	}, nil
}

// AblationQoS sweeps the QoS option space over heterogeneous capability
// sets and reports the default mapper's decision table (§5.2).
func AblationQoS(RunConfig) (Report, error) {
	t := bench.Table{
		Title:  "Default QoS mapping across host capability sets",
		Header: []string{"Datapath", "Resources", "Host techs", "Mapped to", "Fallback"},
	}
	capsSets := []struct {
		name string
		caps datapath.Caps
	}{
		{"kernel only", datapath.Caps{}},
		{"xdp", datapath.Caps{XDP: true}},
		{"dpdk", datapath.Caps{DPDK: true}},
		{"dpdk+xdp", datapath.Caps{DPDK: true, XDP: true}},
		{"full (rdma)", datapath.Caps{DPDK: true, XDP: true, RDMA: true}},
	}
	for _, dp := range []qos.Datapath{qos.DatapathSlow, qos.DatapathFast} {
		for _, res := range []qos.Resources{qos.ResourcesUnconstrained, qos.ResourcesConstrained} {
			for _, cs := range capsSets {
				tech, fb := qos.DefaultMap(qos.Options{Datapath: dp, Resources: res}, cs.caps)
				t.AddRow(dp.String(), res.String(), cs.name, tech.String(), fmt.Sprint(fb))
			}
		}
	}
	return Report{
		ID: "ablation-qos", Title: "Ablation — QoS mapping decision table",
		Tables: []bench.Table{t},
		Notes:  []string{"RDMA > DPDK > XDP > kernel under unconstrained resources; DPDK excluded when CPU is constrained; kernel fallback warns (§5.2)"},
	}, nil
}

// insanePingPongVia adapts apps.InsanePingPong for ablations.
func insanePingPongVia(cluster *insane.Cluster, payload, rounds int) []time.Duration {
	return apps.InsanePingPong(cluster, payload, rounds, true)
}
