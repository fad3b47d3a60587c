//go:build perfbench

package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name          string
		before, after []float64
		lower         bool
		want          string
	}{
		{"unchanged", steady, steady, true, verdictOK},
		{"latency up 5% within a 10% bound", steady, shifted(1.05), true, verdictOK},
		{"latency up 20%", steady, shifted(1.20), true, verdictRegressed},
		{"latency down 20%", steady, shifted(0.80), true, verdictOK},
		{"rate down 20%", steady, shifted(0.80), false, verdictRegressed},
		{"rate up 20%", steady, shifted(1.20), false, verdictOK},
		{"spread wider than the bound", noisy, noisy, true, verdictUnresolved},
		{"noisy but every run better", noisy, shifted(0.5), true, verdictOK},
		{"single runs are judged on their values", []float64{100}, []float64{125}, true, verdictRegressed},
	} {
		if got, _ := judge(c.before, c.after, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func writeSet(t *testing.T, dir, name string, latency float64, failed uint64) string {
	t.Helper()
	set := resultSet{}
	for i := 0; i < 3; i++ {
		set.Runs = append(set.Runs, &result{
			Correct: failed == 0, Attempted: 1000, Failed: failed, Workload: "w",
			Metrics: map[string]metric{"latency_p50_us": {latency + float64(i)*0.01, "us"}, "setup_s": {0.01, "s"}},
		})
	}
	path := filepath.Join(dir, name)
	if err := set.write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesExitsOnRegressionAndOnMoreFailures(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
		{"name":"latency_p50_us","unit":"us","better":"lower","bound":0.10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeSet(t, dir, "a.json", 10, 0)
	if err := compareFiles(spec, base, writeSet(t, dir, "same.json", 10.2, 0)); err != nil {
		t.Errorf("2%% slower within a 10%% bound: %v", err)
	}
	if err := compareFiles(spec, base, writeSet(t, dir, "slow.json", 12, 0)); err == nil {
		t.Error("20% slower: no error")
	}
	if err := compareFiles(spec, base, writeSet(t, dir, "broken.json", 10, 3)); err == nil {
		t.Error("more failed operations: no error")
	}
	if err := compareFiles(filepath.Join(dir, "missing.json"), base, base); err == nil {
		t.Error("missing benchmark description: no error")
	}
}
