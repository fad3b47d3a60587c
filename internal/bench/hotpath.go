// Hot-path measurement harness: wall-clock ns/op plus allocation
// counters for the middleware's steady-state operations, emitted as
// machine-readable JSON (BENCH_hotpath.json) so successive PRs have a
// perf trajectory to regress against. The paper's headline claim is
// ns-scale runtime overhead (§6.2); this file is how the repository
// keeps that claim honest over time.

package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// HotpathResult is one measured hot-path operation.
type HotpathResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// String renders a result the way `go test -bench` does.
func (r HotpathResult) String() string {
	return fmt.Sprintf("%-28s %8d iters  %10.1f ns/op  %7.2f allocs/op  %9.1f B/op",
		r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
}

// MeasureHotpath times iters invocations of op and reports per-op wall
// time and allocation deltas. Allocation counters are process-wide
// (runtime.MemStats), so background activity — the runtime's polling
// threads included — counts against the measured path; that is
// deliberate: an allocation smuggled into the poller is still a hot-path
// allocation. Callers should warm the path first so one-time pool fills
// don't bill the steady state.
//
// The measured window is GC-fenced and re-warmed: a forced collection
// drains pending frees, the collector is disabled
// (debug.SetGCPercent(-1)) until the window closes, and warmup
// iterations of op run between the fence and the first counter read.
// The order matters: the forced GC clears every sync.Pool, so the first
// ops after it repopulate the wrapper and envelope pools — a fixed
// handful of allocations that earlier baselines recorded as a spurious
// ~0.0005 allocs/op drift on paths that are provably allocation-free.
// Re-warming inside the fence puts those refills before the counters
// start, and with the collector off the pools cannot drain again
// mid-window.
func MeasureHotpath(name string, iters, warmup int, op func() error) (HotpathResult, error) {
	if iters <= 0 {
		return HotpathResult{}, fmt.Errorf("bench: iters must be positive, got %d", iters)
	}
	runtime.GC()
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	for i := 0; i < warmup; i++ {
		if err := op(); err != nil {
			return HotpathResult{}, fmt.Errorf("bench: %s warmup %d: %w", name, i, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return HotpathResult{}, fmt.Errorf("bench: %s iter %d: %w", name, i, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return HotpathResult{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

// ThroughputResult is one multi-core throughput measurement: total
// packets delivered per second across a pollers × streams topology.
type ThroughputResult struct {
	Name string `json:"name"`
	// Pollers is the polling threads per datapath plugin; Streams is the
	// concurrent emitting sources (one goroutine each).
	Pollers int `json:"pollers"`
	Streams int `json:"streams"`
	// Packets is the total delivered; Elapsed the wall-clock seconds.
	Packets int     `json:"packets"`
	Elapsed float64 `json:"elapsed_sec"`
	// Dropped is the emitted messages lost on a full sink ring
	// (DroppedBackpressure) and EmitBackpressure the Emits refused on a
	// full TX lane and retried; both are 0 when the windows hold.
	Dropped          uint64 `json:"dropped"`
	EmitBackpressure uint64 `json:"emit_backpressure"`
	// PacketsPerSec is the headline rate.
	PacketsPerSec float64 `json:"packets_per_sec"`
	// Stage breakdown means (virtual ns per packet), from the runtime's
	// telemetry histograms: scheduler dwell and delivery latency.
	SchedDwellNs float64 `json:"sched_dwell_ns"`
	DeliverNs    float64 `json:"deliver_ns"`
}

// String renders a throughput result for terminal output.
func (r ThroughputResult) String() string {
	return fmt.Sprintf("%-28s %2d pollers %2d streams  %12.0f pkt/s  dropped %d  emit-backpressure %d  dwell %8.1f ns  deliver %8.1f ns",
		r.Name, r.Pollers, r.Streams, r.PacketsPerSec, r.Dropped, r.EmitBackpressure, r.SchedDwellNs, r.DeliverNs)
}

// BenchEnv records the machine the numbers were taken on, so a baseline
// diff can tell a code regression from a hardware change.
type BenchEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentEnv captures the running process's environment metadata.
func CurrentEnv() BenchEnv {
	return BenchEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// HotpathBaseline is the schema of BENCH_hotpath.json. Env and
// Throughput are omitted when empty, so files written by older harness
// versions parse unchanged.
type HotpathBaseline struct {
	// Note documents what the numbers are for readers of the file.
	Note string `json:"note"`
	// Env records the measuring machine (nil in pre-env baselines).
	Env        *BenchEnv          `json:"env,omitempty"`
	Results    []HotpathResult    `json:"results"`
	Throughput []ThroughputResult `json:"throughput,omitempty"`
}

// ReadHotpathJSON parses a baseline file (any schema version).
func ReadHotpathJSON(path string) (HotpathBaseline, error) {
	var b HotpathBaseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return b, nil
}

// WriteHotpathJSON writes the baseline file, indented for diff-friendly
// commits.
func WriteHotpathJSON(path string, results []HotpathResult, throughput []ThroughputResult) error {
	env := CurrentEnv()
	b := HotpathBaseline{
		Note: "Steady-state hot-path baseline (wall-clock; allocation counters " +
			"are process-wide, measured after warmup inside a GC-fenced window: " +
			"forced GC then GC disabled for the measurement). " +
			"Regenerate with `make bench-baseline`; gate with `make bench-compare`.",
		Env:        &env,
		Results:    results,
		Throughput: throughput,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// CompareHotpath checks fresh results against a baseline: a named
// result regresses when its ns/op exceeds the baseline's by more than
// tolerance (a fraction, e.g. 0.10 for +10%) or its allocs/op rises
// above the baseline's (any increase on a zero-allocation path is a
// bug, not noise). Results absent from either side are reported as
// informational lines, not failures. The returned report is
// human-readable; failed tells the caller to exit non-zero.
func CompareHotpath(baseline HotpathBaseline, fresh []HotpathResult, tolerance float64) (report string, failed bool) {
	base := make(map[string]HotpathResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	out := ""
	for _, r := range fresh {
		b, ok := base[r.Name]
		if !ok {
			out += fmt.Sprintf("NEW   %-28s %10.1f ns/op (no baseline entry)\n", r.Name, r.NsPerOp)
			continue
		}
		limit := b.NsPerOp * (1 + tolerance)
		switch {
		case r.NsPerOp > limit:
			out += fmt.Sprintf("FAIL  %-28s %10.1f ns/op > %.1f (baseline %.1f +%.0f%%)\n",
				r.Name, r.NsPerOp, limit, b.NsPerOp, tolerance*100)
			failed = true
		case r.AllocsPerOp > b.AllocsPerOp:
			out += fmt.Sprintf("FAIL  %-28s %7.4f allocs/op > baseline %.4f\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp)
			failed = true
		default:
			out += fmt.Sprintf("ok    %-28s %10.1f ns/op (baseline %.1f, limit %.1f)\n",
				r.Name, r.NsPerOp, b.NsPerOp, limit)
		}
		delete(base, r.Name)
	}
	for _, b := range baseline.Results {
		if _, left := base[b.Name]; left {
			out += fmt.Sprintf("MISS  %-28s in baseline but not re-measured\n", b.Name)
		}
	}
	return out, failed
}
