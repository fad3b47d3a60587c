//go:build perfbench

package main

import (
	"fmt"

	"github.com/insane-mw/insane/internal/netstack"
	"github.com/insane-mw/insane/internal/ringbuf"
	"github.com/insane-mw/insane/internal/telemetry"
)

// The base packages are the only ones below the public API that code
// outside internal/core may import (ARCH.layers), so they are the only
// layers timed directly, single-threaded and uncontended: a floor under
// the spans, not a share of them. mempool, sched, fabric and the plugins
// are read from the insane.* spans and from the workload in which they
// alone differ.
const (
	layerRounds = 15
	layerIters  = 200_000
)

// timeOp returns the median over layerRounds rounds of the mean time of
// one call to op, in nanoseconds.
func timeOp(op func()) float64 {
	rounds := make([]float64, layerRounds)
	for r := range rounds {
		start := now()
		for i := 0; i < layerIters; i++ {
			op()
		}
		rounds[r] = float64(now()-start) / layerIters
	}
	return median(rounds)
}

// keep holds timed calls' results so the compiler cannot discard the calls.
var keep int

// baseLayers times the base packages and returns metric name to
// nanoseconds per operation.
func baseLayers() (map[string]float64, error) {
	out := make(map[string]float64)

	spsc, err := ringbuf.NewSPSC[uint64](1024)
	if err != nil {
		return nil, fmt.Errorf("spsc ring: %w", err)
	}
	out["ringbuf.spsc_ns"] = timeOp(func() {
		spsc.TryPush(1)
		v, _ := spsc.TryPop()
		keep += int(v)
	})
	mpmc, err := ringbuf.NewMPMC[uint64](1024)
	if err != nil {
		return nil, fmt.Errorf("mpmc ring: %w", err)
	}
	out["ringbuf.mpmc_ns"] = timeOp(func() {
		mpmc.TryPush(1)
		v, _ := mpmc.TryPop()
		keep += int(v)
	})
	var batch [32]uint64
	out["ringbuf.mpmc_batch32_ns"] = timeOp(func() {
		mpmc.PushBatch(batch[:])
		keep += mpmc.PopBatch(batch[:])
	}) / float64(len(batch))

	meta := netstack.FrameMeta{
		SrcMAC: netstack.MAC{2, 0, 0, 0, 0, 1}, DstMAC: netstack.MAC{2, 0, 0, 0, 0, 2},
		Src: netstack.Endpoint{IP: netstack.IPv4{10, 0, 2, 1}, Port: 46002},
		Dst: netstack.Endpoint{IP: netstack.IPv4{10, 0, 2, 2}, Port: 46002},
	}
	frame := make([]byte, netstack.FrameLen(8192))
	for _, sz := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"8KB", 8192}} {
		var encErr, decErr error
		out["netstack.encode_"+sz.name+"_ns"] = timeOp(func() {
			n, err := netstack.EncodeUDP(frame, meta, sz.n, netstack.JumboMTU)
			keep += n
			if err != nil {
				encErr = err
			}
		})
		out["netstack.parse_"+sz.name+"_ns"] = timeOp(func() {
			_, payload, err := netstack.DecodeUDP(frame[:netstack.FrameLen(sz.n)])
			keep += len(payload)
			if err != nil {
				decErr = err
			}
		})
		if encErr != nil || decErr != nil {
			return nil, fmt.Errorf("netstack %s frame: encode: %v, parse: %v", sz.name, encErr, decErr)
		}
	}

	shard := telemetry.New(1).Shard(0)
	out["telemetry.record_ns"] = timeOp(func() {
		shard.Inc(telemetry.CtrEmits)
		shard.Observe(telemetry.HistConsumeLatency, 2500)
	})
	return out, nil
}
