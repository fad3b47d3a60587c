// Package dep provides the constant batch cap and one unproven loop;
// both cross the package boundary as Summary facts.
package dep

// Burst is the batch cap, published as a constant-return function so
// dependents can use it as a provable loop bound.
func Burst() int { return 32 }

// Flush has a data-dependent loop; it is only reported once a hot-path
// root in a dependent package reaches it.
func Flush(m map[int]int) {
	for range m { // want `range loop is not provably bounded: the map size is data-dependent \[unbounded\] reachable from hot-path root Root: Root -> b/dep\.Flush`
	}
}
