// Package b exercises the cross-package fact flow in both directions:
// a loop here is proven through dep.Burst's ConstBound fact, and dep's
// own unproven loop is reported with the chain from the root here.
package b

import "b/dep"

// Root's loop folds dep.Burst() to 32 via the Summary fact exported
// by dep's pass — the bound lives in a dependency. The call into
// dep.Flush drags dep's unproven loop into the report.
//
//insane:hotpath
func Root(pkts []int, m map[int]int) int {
	s := 0
	for i := 0; i < dep.Burst() && i < len(pkts); i++ {
		s += pkts[i]
	}
	dep.Flush(m)
	return s
}
