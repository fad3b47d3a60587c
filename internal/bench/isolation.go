// Tenant-isolation measurement schema: BENCH_isolation.json records the
// latency tail of a time-sensitive tenant with and without a best-effort
// tenant flooding the same node (DESIGN.md §12). The headline claim is
// 802.1Qbv-style timing isolation — a noisy neighbour cannot move a TSN
// tenant's p99.9 past its gate-cycle budget — and this file keeps that
// claim regressable.

package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

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

// IsolationResult is one isolation scenario: the TSN tenant's consume
// latency quantiles (wall clock, Emit admission to Consume return) and
// the interfering load that was running alongside.
type IsolationResult struct {
	Name string `json:"name"`
	// TSNMessages is how many paced time-sensitive messages were sent.
	TSNMessages int `json:"tsn_messages"`
	// FloodMessages is how many best-effort messages the noisy tenant
	// pushed through during the window (0 in the quiet baseline).
	FloodMessages int `json:"flood_messages"`
	// FloodPktPerSec is the noisy tenant's delivered rate.
	FloodPktPerSec float64 `json:"flood_pkt_per_sec"`
	// TSN consume-latency quantiles in nanoseconds.
	TSNP50Ns  float64 `json:"tsn_p50_ns"`
	TSNP99Ns  float64 `json:"tsn_p99_ns"`
	TSNP999Ns float64 `json:"tsn_p999_ns"`
	// BudgetNs is the p99.9 ceiling the scenario was gated against.
	BudgetNs float64 `json:"budget_ns"`
	// Pass records whether TSNP999Ns stayed within BudgetNs.
	Pass bool `json:"pass"`
}

// String renders a result for terminal output.
func (r IsolationResult) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%-20s %6d tsn msgs  %8d flood msgs (%10.0f pkt/s)  p50 %8.0f ns  p99 %8.0f ns  p99.9 %8.0f ns  budget %8.0f ns  %s",
		r.Name, r.TSNMessages, r.FloodMessages, r.FloodPktPerSec,
		r.TSNP50Ns, r.TSNP99Ns, r.TSNP999Ns, r.BudgetNs, status)
}

// IsolationBaseline is the schema of BENCH_isolation.json.
type IsolationBaseline struct {
	Note    string            `json:"note"`
	Env     *BenchEnv         `json:"env,omitempty"`
	Results []IsolationResult `json:"results"`
}

// WriteIsolationJSON writes the baseline file, indented for
// diff-friendly commits.
func WriteIsolationJSON(path string, results []IsolationResult) error {
	env := CurrentEnv()
	b := IsolationBaseline{
		Note: "Tenant timing-isolation baseline: a paced class-7 TSN tenant's " +
			"consume-latency tail (wall clock, Emit admission to Consume return) " +
			"measured quiet and under a best-effort tenant flood on the same " +
			"node. p99.9 must stay within the gate-cycle budget in both runs. " +
			"Regenerate with `make bench-isolation`.",
		Env:     &env,
		Results: results,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
