//go:build perfbench

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
)

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Env  env       `json:"env"`
	Runs []*result `json:"runs"`
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("read results %s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload over the untraced runs.
func (s *resultSet) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// failedShare is failed operations over attempted ones, all runs together.
func (s *resultSet) failedShare() float64 {
	var failed, attempted uint64
	for _, r := range s.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func (s *resultSet) workloads() []string {
	var names []string
	for _, r := range s.Runs {
		if !slices.Contains(names, r.Workload) {
			names = append(names, r.Workload)
		}
	}
	return names
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads: the
// bounds for the comparison, the rest for its tests.
type benchSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark description: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("read benchmark description %s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s names no end-to-end metric", path)
	}
	return &spec, nil
}

// printSpreads reports, per workload and end-to-end metric, the median
// and quartiles over the runs and the spread against the metric's bound.
func (s *resultSet) printSpreads(specPath string) {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Printf("\nno spread report: %v\n", err)
		return
	}
	fmt.Printf("\n%-18s %-16s %4s %12s %12s %12s %8s %6s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, w := range s.workloads() {
		for _, m := range spec.EndToEnd {
			vs := s.values(w, m.Name)
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			fmt.Printf("%-18s %-16s %4d %12.6g %12.6g %12.6g %8.4f %6.2f\n", w, m.Name, len(vs), q1, q2, q3, spread(vs), m.Bound)
		}
	}
}

// verdict of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the after runs of a metric to the before runs. The
// change regressed when its median is worse than the parent's by more
// than bound (a share of the parent's median). When either side's own
// runs spread wider than the bound the medians cannot settle it, and the
// pair is unresolved unless every after run beats every before run.
func judge(before, after []float64, lowerIsBetter bool, bound float64) (verdict string, change float64) {
	mb, ma := median(before), median(after)
	change = ratio(ma-mb, mb) // positive: grew
	worse := change
	if !lowerIsBetter {
		worse = -change
	}
	if max(spread(before), spread(after)) > bound {
		allBetter := slices.Max(after) < slices.Min(before)
		if !lowerIsBetter {
			allBetter = slices.Min(after) > slices.Max(before)
		}
		if !allBetter {
			return verdictUnresolved, change
		}
	}
	if worse > bound {
		return verdictRegressed, change
	}
	return verdictOK, change
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns an error when a metric regressed or more operations failed.
func compareFiles(specPath, beforePath, afterPath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	before, err := readResultSet(beforePath)
	if err != nil {
		return err
	}
	after, err := readResultSet(afterPath)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-16s %12s %12s %9s %6s  %s\n", "workload", "metric", "before", "after", "change", "bound", "verdict")
	regressed := 0
	for _, w := range before.workloads() {
		for _, m := range spec.EndToEnd {
			b, a := before.values(w, m.Name), after.values(w, m.Name)
			if len(b) == 0 || len(a) == 0 {
				continue
			}
			v, change := judge(b, a, m.Better == "lower", m.Bound)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-18s %-16s %12.6g %12.6g %+8.2f%% %6.2f  %s\n", w, m.Name, median(b), median(a), 100*change, m.Bound, v)
		}
	}
	fb, fa := before.failedShare(), after.failedShare()
	fmt.Printf("failed share: before %.3g, after %.3g\n", fb, fa)
	switch {
	case regressed > 0:
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	case fa > fb:
		return errors.New("a higher share of operations failed")
	}
	return nil
}
