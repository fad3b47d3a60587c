//go:build perfbench

// Command perfbench is the repository's benchmark: four workloads driven
// through the public insane API in wall-clock time, every delivered
// message checked, end-to-end metrics measured with tracing off and
// per-layer metrics from a second, traced pass. BENCHMARK.md beside this
// file describes every workload and metric, how they interact, the load
// model and what is deliberately not measured.
//
// Usage (from the repository root; run.sh builds and then runs the binary):
//
//	bash perfbench/run.sh                                   # all workloads, both passes
//	bash perfbench/run.sh --workload remote-dpdk --trace 1  # one workload, traced pass
//	bash perfbench/run.sh --runs 10 --out a.json            # ten sets, medians and quartiles
//	bash perfbench/run.sh --compare a.json b.json           # apply BENCHMARK.json's bounds
//	bash perfbench/run.sh --workload tsn-mixed --trace 1 --spans spans.jsonl
//
// A run of one workload and one pass ends with the one-line JSON object
// the driver reads: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect makes the process exit non-zero after the report is
// printed: a correctness or conservation check failed.
var errIncorrect = errors.New("a correctness or conservation check failed")

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all): "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "seed of payload pattern, cluster and TSN phase offset")
		seconds = fs.Float64("seconds", 20, "measured time per run")
		trace   = fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on; default both")
		runs    = fs.Int("runs", 1, "repeat the set this many times with successive seeds and report medians and quartiles")
		out     = fs.String("out", "", "write every run's result to this JSON file (input of -compare)")
		spans   = fs.String("spans", "", "traced pass: dump the span ring to this file as JSON lines")
		compare = fs.Bool("compare", false, "compare two result files (arguments: before.json after.json) against the bounds of -spec")
		spec    = fs.String("spec", "BENCHMARK.json", "benchmark description holding the bounds for -compare")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *runs < 1 {
		return errors.New("-seconds must be positive and -runs at least 1")
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		selected = []workload{w}
	}
	passes := []bool{false, true}
	if *trace == 0 || *trace == 1 {
		passes = []bool{*trace == 1}
	} else if *trace != -1 {
		return errors.New("-trace takes 0 or 1")
	}

	set := resultSet{Env: environment(*seconds)}
	fmt.Printf("perfbench: %s\n", set.Env)
	incorrect := false
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			for _, traced := range passes {
				res, err := runOne(w, *seed+uint64(i), *seconds, traced, *spans)
				if err != nil {
					return err
				}
				res.print()
				incorrect = incorrect || !res.Correct
				set.Runs = append(set.Runs, res)
			}
		}
	}
	if *runs > 1 {
		set.printSpreads(*spec)
	}
	if *out != "" {
		if err := set.write(*out); err != nil {
			return err
		}
	}
	if len(set.Runs) == 1 {
		// The driver's line: exactly these four keys, last on stdout.
		r := set.Runs[0]
		line, err := json.Marshal(result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// env records where and how a result was measured.
type env struct {
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seconds    float64 `json:"seconds"`
	LoadModel  string  `json:"load_model"`
}

func environment(seconds float64) env {
	return env{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Seconds: seconds,
		LoadModel: "closed loops, one load goroutine (plus one echo goroutine on remote-dpdk), one poller per plugin, in-process virtual fabric: no real link or loopback socket",
	}
}

func (e env) String() string {
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d %s, %g s per run; %s", e.NumCPU, e.GoMaxProcs, e.GoVersion, e.Seconds, e.LoadModel)
}

// print reports every metric of the run by name, with its unit.
func (res *result) print() {
	pass := "end-to-end, tracing off"
	if res.Traced {
		pass = "per-layer, tracing on"
	}
	fmt.Printf("\n%s seed=%d (%s): %d segments of %v, %d latency samples, ops_attempted=%d ops_failed=%d\n",
		res.Workload, res.Seed, pass, res.Segments, segmentLen, res.Samples, res.Attempted, res.Failed)
	if w, ok := findWorkload(res.Workload); ok {
		fmt.Printf("  why: %s\n", w.why)
	}
	fmt.Printf("  latency tail (diagnostic, does not repeat): %s\n", res.Tail)
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Printf("  %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range res.Notes {
		fmt.Printf("  FAILED: %s\n", n)
	}
}
