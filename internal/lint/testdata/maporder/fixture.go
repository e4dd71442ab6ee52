// Package maporder is a fixture for the map-iteration-order analyzer.
package maporder

import (
	"fmt"
	"sort"
	"strings"
)

func appendUnsorted(m map[string]int) []string {
	var names []string
	for k := range m {
		names = append(names, k) // want `append to names inside range over map m accumulates in map iteration order`
	}
	return names
}

func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // exempt: sorted below
	}
	sort.Strings(keys)
	return keys
}

func writeUnsorted(m map[string]int, b *strings.Builder) {
	for k, v := range m {
		fmt.Fprintf(b, "%s=%d\n", k, v) // want `Fprintf inside range over map m: output written in map iteration order`
	}
}

// recorder has the recording methods of *trace.Trace.
type recorder struct{}

func (recorder) RunOn(entity string, cpu int) {}
func (recorder) Mark(entity string)           {}

func recordUnsorted(r recorder, m map[string]int) {
	for k, v := range m {
		r.RunOn(k, v) // want `RunOn inside range over map m: output written in map iteration order`
	}
	for k := range m {
		r.Mark(k) // want `Mark inside range over map m: output written in map iteration order`
	}
}

func lastWriterWins(m map[string]int, want int) string {
	name := "unknown"
	for k, v := range m {
		if v == want {
			name = k // want `assignment to name inside range over map m depends on map iteration order`
		}
	}
	return name
}

func floatFold(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation into sum inside range over map m is order-sensitive`
	}
	return sum
}

func stringFold(m map[string]string) string {
	out := ""
	for _, v := range m {
		out += v // want `string concatenation into out inside range over map m emits in map iteration order`
	}
	return out
}

func arbitraryPick(m map[string]int) string {
	for k := range m {
		return k // want `return of a loop variable inside range over map m selects an arbitrary entry`
	}
	return ""
}

func intTally(m map[string]int) (int, int) {
	count := 0
	sum := 0
	for _, v := range m {
		count++  // commutative: not flagged
		sum += v // exact integer addition: not flagged
	}
	return count, sum
}

func flagFound(m map[string]int, want int) bool {
	found := false
	for _, v := range m {
		if v == want {
			found = true // RHS independent of loop vars: not flagged
		}
	}
	return found
}

func sliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x) // slices iterate in index order: not flagged
	}
	return out
}
