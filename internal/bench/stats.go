// Package bench provides the statistics and formatting helpers of the
// experiment harness: latency summaries (median and quartiles, as the
// paper's box plots report) and aligned table rendering for the
// regenerated figures.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary condenses a latency sample set the way the paper's plots do.
type Summary struct {
	N             int
	Min, Max      time.Duration
	Mean, Median  time.Duration
	P25, P75, P99 time.Duration
	StdDev        time.Duration
}

// Summarize computes a Summary; it copies and sorts the input.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })

	var sum time.Duration
	for _, v := range s {
		sum += v
	}
	mean := sum / time.Duration(len(s))

	var varAcc float64
	for _, v := range s {
		d := float64(v - mean)
		varAcc += d * d
	}
	std := time.Duration(0)
	if len(s) > 1 {
		std = time.Duration(math.Sqrt(varAcc / float64(len(s)-1)))
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Median: percentile(s, 0.50),
		P25:    percentile(s, 0.25),
		P75:    percentile(s, 0.75),
		P99:    percentile(s, 0.99),
		StdDev: std,
	}
}

// percentile returns the p-quantile of sorted samples (nearest-rank with
// linear interpolation).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// Micros renders a duration as microseconds with two decimals, the unit
// of the paper's latency figures.
func Micros(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Microsecond))
}

// Table renders rows as an aligned plain-text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table. A row may be wider than the header: the cells
// past the last header column have no column to align to and are rendered
// unpadded.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}
