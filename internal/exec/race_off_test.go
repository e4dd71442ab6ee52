//go:build !race

package exec

// raceEnabled reports whether the race detector is compiled in; it adds
// allocations of its own, so the allocation-pinning tests skip under it.
const raceEnabled = false
