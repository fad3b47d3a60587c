// Package a exercises every hotpathcheck loop diagnostic class inside
// one package: unconditioned and constant-true for loops, data-dependent
// counters and ranges, recursion, and the full set of bounded-proof
// recognizers (constant counters, array ranges, fence clamps, constant
// calls) that must stay silent.
package a

const burst = 8

// ---- unproven loops --------------------------------------------------

//insane:hotpath
func spin() {
	for { // want `for loop is not provably bounded: it has no termination condition \[unbounded\] in hot-path root spin`
	}
}

const always = true

//insane:hotpath
func spinTrue() {
	for always { // want `for loop is not provably bounded: its condition is constant-true \[unbounded\]`
	}
}

//insane:hotpath
func dataCounter(n int) {
	for i := 0; i < n; i++ { // want `for loop is not provably bounded: no conjunct of its condition caps a constant-stepped counter at a provable constant \[unbounded\]`
		_ = i
	}
}

//insane:hotpath
func rangeSlice(pkts []int) int {
	s := 0
	for _, v := range pkts { // want `range loop is not provably bounded: the slice length is not fence-checked against a constant cap \[unbounded\]`
		s += v
	}
	return s
}

//insane:hotpath
func rangeMap(m map[int]int) {
	for range m { // want `range loop is not provably bounded: the map size is data-dependent \[unbounded\]`
	}
}

//insane:hotpath
func rangeChan(c chan int) {
	for range c { // want `range loop is not provably bounded: the channel receive count is data-dependent \[unbounded\]`
	}
}

//insane:hotpath
func rangeString(s string) {
	for range s { // want `range loop is not provably bounded: the string length is data-dependent \[unbounded\]`
	}
}

// ---- unproven loop in a callee: chain in the diagnostic --------------

//insane:hotpath
func chained(m map[int]int) {
	helper(m)
}

func helper(m map[int]int) {
	for range m { // want `range loop is not provably bounded: the map size is data-dependent \[unbounded\] reachable from hot-path root chained: chained -> helper`
	}
}

// ---- recursion -------------------------------------------------------

//insane:hotpath
func recurseRoot(n int) int {
	return fib(n)
}

func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2) // want `recursive call to fib makes per-packet work unprovable \[unbounded\] reachable from hot-path root recurseRoot: recurseRoot -> fib`
}

// ---- proven loops: all of these must stay silent ---------------------

//insane:hotpath
func counterUp() int {
	s := 0
	for i := 0; i < burst; i++ {
		s += i
	}
	return s
}

//insane:hotpath
func counterDown() int {
	s := 0
	for i := burst - 1; i >= 0; i-- {
		s += i
	}
	return s
}

//insane:hotpath
func counterStep() int {
	s := 0
	for i := 0; i < burst; i += 2 {
		s += i
	}
	return s
}

// counterConjunct is bounded by its first conjunct even though the
// second is data-dependent.
//
//insane:hotpath
func counterConjunct(pkts []int) int {
	s := 0
	for i := 0; i < burst && i < len(pkts); i++ {
		s += pkts[i]
	}
	return s
}

var table [16]int

//insane:hotpath
func rangeArray() int {
	s := 0
	for _, v := range table {
		s += v
	}
	return s
}

//insane:hotpath
func rangePtrArray(t *[4]int) int {
	s := 0
	for _, v := range t {
		s += v
	}
	return s
}

//insane:hotpath
func rangeConstInt() int {
	s := 0
	for i := range burst {
		s += i
	}
	return s
}

// rangeClamped fences the slice against a constant cap before ranging.
//
//insane:hotpath
func rangeClamped(pkts []int) int {
	if len(pkts) > burst {
		pkts = pkts[:burst]
	}
	s := 0
	for _, v := range pkts {
		s += v
	}
	return s
}

// clampedCounter fences the bound variable itself.
//
//insane:hotpath
func clampedCounter(n int) int {
	s := 0
	if n > burst {
		n = burst
	}
	for i := 0; i < n; i++ {
		s++
	}
	return s
}

// batch is a constant-return function: calls to it fold when proving
// bounds in this package.
func batch() int { return 16 }

//insane:hotpath
func constCall() int {
	s := 0
	for i := 0; i < batch(); i++ {
		s++
	}
	return s
}

// ---- waivers and barriers --------------------------------------------

// waived carries a verified //insane:bounded annotation: the loop is
// unproven but vouched for, so it must stay silent.
//
//insane:hotpath
func waived(pkts []int) int {
	s := 0
	//insane:bounded by=the poller slices pkts to one burst before calling
	for _, v := range pkts {
		s += v
	}
	return s
}

// suppressed is waived finding-by-finding instead.
//
//insane:hotpath
func suppressed(m map[int]int) {
	//lint:ignore insanevet/hotpathcheck fixture: demonstrates per-line waiver
	for range m {
	}
}

//insane:hotpath
func coldCaller() {
	slowRebuild()
}

// slowRebuild is a traversal barrier: its loop is never reported.
//
//insane:coldpath control-plane rebuild, off the packet path
func slowRebuild() {
	m := map[int]int{}
	for range m {
	}
}

// offPath is reachable from no root: its loop is summarized into the
// fact but never reported.
func offPath(m map[int]int) {
	for range m {
	}
}

// dynamic holds a loop in a capture-free literal: the literal's body
// belongs to a different function and is out of scope here.
//
//insane:hotpath
func dynamic(fns []func()) {
	f := func(m map[int]int) {
		for range m {
		}
	}
	_ = f
}
