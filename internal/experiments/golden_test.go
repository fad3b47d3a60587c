package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVirtualTimeGolden: every experiment but table3, whose LoC column
// counts the source tree, rendered with the configuration insane-bench
// runs by default, reads exactly as testdata/virtual-time.golden. Virtual
// time is deterministic, so a runtime change that must keep it
// bit-identical is checked here, not by diffing insane-bench by hand. Regenerate the golden only for a change
// that means to move virtual time:
//
//	go run ./cmd/insane-bench -experiment $(go run ./cmd/insane-bench -list | grep -vx table3 | paste -sd,) \
//	  | grep -v '^(completed in' > internal/experiments/testdata/virtual-time.golden
func TestVirtualTimeGolden(t *testing.T) {
	var got strings.Builder
	for _, id := range IDs() {
		if id == "table3" {
			continue
		}
		rep, err := Run(id, RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// insane-bench's layout less its "(completed in …)" line.
		got.WriteString(rep.String())
		got.WriteByte('\n')
	}
	want, err := os.ReadFile(filepath.Join("testdata", "virtual-time.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("virtual time moved: first difference at line %d\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
