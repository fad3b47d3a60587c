package telemetry

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSeriesRe matches one sample line: name{labels} value.
var promSeriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|\+Inf)$`)

// parseProm validates text-format output line by line and returns the
// samples as fullname{labels} -> value.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("invalid metric type in %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSeriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if _, ok := typed[m[1]]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("sample %q has no preceding TYPE", m[1])
			}
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestWritePromFormat renders a populated snapshot for two nodes and
// checks the output is well-formed, histograms are cumulative, and
// +Inf buckets equal _count.
func TestWritePromFormat(t *testing.T) {
	tel := New(2)
	sh := tel.Shard(0)
	for i := 0; i < 100; i++ {
		sh.Inc(CtrEmits)
		sh.Observe(HistConsumeLatency, int64(i)*10_000)
		sh.Observe(HistTxRingOccupancy, int64(i%7))
	}
	snap := tel.Snapshot()
	snap.Mempool = MempoolSnapshot{
		Gets: 100, Releases: 100,
		FreeSlots: []int{4000, 1000}, CapSlots: []int{4096, 1024},
		CommittedSlots: []int{128, 0}, SlotSizes: []int{2048, 9216},
	}
	empty := New(1).Snapshot()
	empty.Mempool = snap.Mempool

	var b strings.Builder
	if err := WriteProm(&b, []NodeSnapshot{{Node: "a", Snap: snap}, {Node: "b", Snap: empty}}); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples := parseProm(t, text)

	if got := samples[`insane_emits_total{node="a"}`]; got != 100 {
		t.Fatalf("emits a = %v, want 100", got)
	}
	if got := samples[`insane_emits_total{node="b"}`]; got != 0 {
		t.Fatalf("emits b = %v, want 0", got)
	}
	if got := samples[`insane_consume_latency_seconds_count{node="a"}`]; got != 100 {
		t.Fatalf("consume count = %v, want 100", got)
	}
	if got := samples[`insane_consume_latency_seconds_bucket{node="a",le="+Inf"}`]; got != 100 {
		t.Fatalf("+Inf bucket = %v, want 100", got)
	}
	if got := samples[`insane_mempool_free_slots{node="a",class="2048"}`]; got != 4000 {
		t.Fatalf("free slots = %v, want 4000", got)
	}
	if got, ok := samples[`insane_mempool_committed_slots{node="a",class="9216"}`]; !ok || got != 0 {
		t.Fatalf("committed slots = %v (present %v), want 0", got, ok)
	}
	if got := samples[`insane_mempool_committed_slots{node="b",class="2048"}`]; got != 128 {
		t.Fatalf("committed slots = %v, want 128", got)
	}

	// Cumulative bucket counts never decrease with growing le.
	var prev float64
	bucketRe := regexp.MustCompile(`insane_consume_latency_seconds_bucket\{node="a",le="([^"]+)"\} ([0-9]+)`)
	matches := bucketRe.FindAllStringSubmatch(text, -1)
	if len(matches) < 10 {
		t.Fatalf("expected many buckets, got %d", len(matches))
	}
	for _, m := range matches {
		v, _ := strconv.ParseFloat(m[2], 64)
		if v < prev {
			t.Fatalf("bucket counts not cumulative at le=%s: %v < %v", m[1], v, prev)
		}
		prev = v
	}

	// Every latency family says what its _count counts; the families are
	// the ones a stamp pair feeds.
	for h := HistID(0); h < NumHists; h++ {
		if sampled := strings.Contains(histTable[h].help, "sampled 1-in-64"); sampled != LatencyHist(h) {
			t.Errorf("%s: help %q, latency family = %v", HistMetricName(h), histTable[h].help, LatencyHist(h))
		}
	}
	if !strings.Contains(text, "# TYPE insane_emit_pickup_seconds histogram") || strings.Contains(text, "stage_network") {
		t.Error("scrape must carry emit_pickup and no stage_network family")
	}

	// HELP/TYPE present exactly once per metric family.
	for _, fam := range []string{"insane_emits_total", "insane_consume_latency_seconds", "insane_mempool_gets_total"} {
		if n := strings.Count(text, fmt.Sprintf("# TYPE %s ", fam)); n != 1 {
			t.Fatalf("TYPE for %s appears %d times, want 1", fam, n)
		}
	}
}
