//go:build perfbench

package main

import (
	"slices"
	"testing"
)

// TestRunsMatchBenchmarkJSON runs every workload briefly, traced and not,
// and checks that each run is correct and reports exactly the metrics —
// names and units — that BENCHMARK.json promises for that pass.
func TestRunsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
		if mine, ok := findWorkload(w.Name); ok && mine.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the benchmark give different reasons", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := runOne(w, 42, 2, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s of BENCHMARK.json not reported", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, m.Name, got.Value)
				}
			}
			if traced {
				if r := res.Metrics["trace.span_sum_ratio"].Value; r < 0.9 || r > 1.1 {
					t.Errorf("%s: insane.emit + insane.consume_wait means are %.3f of the traced mean latency, want within 10%%", w.name, r)
				}
			}
		}
	}
}

// TestIncorrectRunIsReported breaks conservation on purpose: a message
// emitted behind the oracle's back must fail the run.
func TestIncorrectRunIsReported(t *testing.T) {
	notes := conservation(counters{}, 1, 1)
	if len(notes) == 0 {
		t.Fatal("harness sent 1, runtime counted 0 emits: no violation reported")
	}
	var d counters
	d.n[cEmits], d.n[cConsumes], d.n[cRingFull] = 10, 36, 4
	if notes := conservation(d, 10, 4); len(notes) != 0 {
		t.Errorf("10 emits x 4 sinks = 36 consumed + 4 counted drops: %v", notes)
	}
	d.n[cRingFull] = 3
	if notes := conservation(d, 10, 4); len(notes) != 1 {
		t.Errorf("one delivery unaccounted for: %v", notes)
	}
}
