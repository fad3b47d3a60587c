// Command insane-info prints the static system information of the
// reproduction: the technology capability matrix (Table 1), the testbed
// profiles (Table 2), and the QoS mapping decision table.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/insane-mw/insane/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "insane-info:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("insane-info", flag.ContinueOnError)
	var (
		testbeds = fs.Bool("testbeds", false, "print only the testbed profiles")
		qosTable = fs.Bool("qos", false, "print only the QoS mapping table")
		metrics  = fs.Bool("metrics", false, "boot a 2-node cluster, run traffic, and print its Prometheus /metrics scrape (counters exact; _seconds histograms wall-clock, sampled 1-in-64, every message on time-sensitive streams)")
		addr     = fs.String("metrics-addr", "127.0.0.1:0", "listen address for -metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metrics {
		return metricsSmoke(os.Stdout, *addr)
	}
	ids := []string{"table1", "table2", "ablation-qos"}
	if *testbeds {
		ids = []string{"table2"}
	}
	if *qosTable {
		ids = []string{"ablation-qos"}
	}
	for _, id := range ids {
		rep, err := experiments.Run(id, experiments.RunConfig{})
		if err != nil {
			return err
		}
		fmt.Print(rep.String())
		fmt.Println()
	}
	return nil
}
