//go:build !race

package netstack

// raceEnabled lets the allocation checks skip under the race detector,
// whose instrumentation allocates.
const raceEnabled = false
