package bench

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	samples := []time.Duration{5, 1, 3, 2, 4}
	s := Summarize(samples)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles = %v/%v, want 2/4", s.P25, s.P75)
	}
	// Input must not be reordered.
	if samples[0] != 5 {
		t.Error("Summarize mutated its input")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Error("empty summary not zero")
	}
	s := Summarize([]time.Duration{7})
	if s.Median != 7 || s.P25 != 7 || s.P99 != 7 || s.StdDev != 0 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

func TestSummarizeInterpolation(t *testing.T) {
	s := Summarize([]time.Duration{0, 10})
	if s.Median != 5 {
		t.Errorf("median of {0,10} = %v, want 5", s.Median)
	}
}

func TestQuickSummaryInvariants(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v)
		}
		s := Summarize(samples)
		return s.Min <= s.P25 && s.P25 <= s.Median &&
			s.Median <= s.P75 && s.P75 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.N == len(samples)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStdDev(t *testing.T) {
	s := Summarize([]time.Duration{2, 4, 4, 4, 5, 5, 7, 9})
	// Sample stddev of this classic set ≈ 2.138.
	if s.StdDev < 2 || s.StdDev > 3 {
		t.Errorf("stddev = %v", s.StdDev)
	}
}

func TestMicros(t *testing.T) {
	if got := Micros(4950 * time.Nanosecond); got != "4.95" {
		t.Errorf("Micros = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "Demo", Header: []string{"sys", "rtt"}}
	tb.AddRow("raw", "3.44")
	tb.AddRow("insane fast", "4.95")
	out := tb.String()
	if !strings.Contains(out, "## Demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Alignment: all data rows at least as wide as the widest cell.
	if !strings.HasPrefix(lines[3], "raw ") {
		t.Errorf("row not padded: %q", lines[3])
	}

	// A row wider than the header used to index past the column widths
	// and panic; its extra cells render unpadded after the aligned ones.
	wide := Table{Header: []string{"a", "bb"}}
	wide.AddRow("1", "2", "3", "4")
	wide.AddRow("1")
	if got, want := wide.String(), "a  bb\n-  --\n1  2   3  4\n1\n"; got != want {
		t.Errorf("wide row rendered %q, want %q", got, want)
	}
}

func TestChartRendering(t *testing.T) {
	c := Chart{Title: "RTT", Unit: "µs", Width: 20}
	c.Add("raw", 3.44)
	c.Add("insane fast", 4.95)
	c.Add("kernel", 12.58)
	out := c.String()
	if !strings.Contains(out, "## RTT") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The largest value gets the full width; smaller ones proportionally
	// fewer bars.
	if !strings.Contains(lines[3], strings.Repeat("#", 20)) {
		t.Errorf("max bar not full width: %q", lines[3])
	}
	rawBars := strings.Count(lines[1], "#")
	if rawBars < 4 || rawBars > 7 {
		t.Errorf("raw bar = %d chars, want ≈5 (3.44/12.58 of 20)", rawBars)
	}
	// Zero and tiny values.
	z := Chart{}
	z.Add("zero", 0)
	z.Add("tiny", 0.0001)
	z.Add("big", 100)
	zl := strings.Split(strings.TrimSpace(z.String()), "\n")
	if strings.Count(zl[0], "#") != 0 {
		t.Error("zero value drew a bar")
	}
	if strings.Count(zl[1], "#") != 1 {
		t.Error("tiny positive value must draw one bar")
	}
	var empty Chart
	if empty.String() != "" {
		t.Error("empty chart not empty")
	}
}
