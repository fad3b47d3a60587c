// Command insane-bench regenerates the paper's evaluation: every table
// and figure of §6-§7 plus the ablations DESIGN.md calls out.
//
// Usage:
//
//	insane-bench                  # run everything
//	insane-bench -experiment fig7a
//	insane-bench -list
//	insane-bench -rounds 1000 -jobs 20000
//	insane-bench -isolation -isolation-out BENCH_isolation.json
//
// Wall-clock performance of the runtime itself is not measured here: that
// is perfbench/ (BENCHMARK.json), run with `bash perfbench/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/insane-mw/insane/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "insane-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("insane-bench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment id to run, or 'all'")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		rounds     = fs.Int("rounds", 0, "ping-pong rounds for latency experiments (0 = default)")
		jobs       = fs.Int("jobs", 0, "messages for simulated throughput runs (0 = default)")
		isolation  = fs.Bool("isolation", false, "run the tenant timing-isolation scenario and fail if the TSN p99.9 exceeds -isolation-budget")
		isoOut     = fs.String("isolation-out", "", "write the isolation results to this JSON baseline file")
		isoMsgs    = fs.Int("isolation-msgs", 5000, "paced TSN messages per isolation scenario")
		isoBudget  = fs.Duration("isolation-budget", 5*time.Millisecond, "TSN p99.9 ceiling for -isolation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return nil
	}
	if *isolation {
		return runIsolation(*isoOut, *isoMsgs, *isoBudget)
	}
	cfg := experiments.RunConfig{Rounds: *rounds, Jobs: *jobs}

	ids := experiments.IDs()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			return err
		}
		fmt.Print(rep.String())
		fmt.Printf("(completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}
