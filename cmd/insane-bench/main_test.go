package main

import (
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "table1", "-rounds", "10", "-jobs", "100"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommaSeparated(t *testing.T) {
	if err := run([]string{"-experiment", "table1, table4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-experiment", "fig99"})
	if err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Fatalf("err = %v", err)
	}
}

// The wall-clock flags retired with the old bench stack are rejected like
// any unknown flag, not silently ignored: perfbench/ measures that now.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-hotpath", "x.json"},
		{"-throughput"},
		{"-compare", "x.json"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
