// Package rtime defines the time model shared by the simulator, the
// virtual-time executive and the analysis code.
//
// All components operate on a virtual clock: Time is an instant (nanoseconds
// since system start) and Duration is a span of virtual time. Using a fixed
// integer representation keeps every engine deterministic and makes traces
// from the simulator and the executive directly comparable.
//
// The paper expresses workloads in abstract "time units" (tu). We map
// 1 tu = 1 millisecond, which comfortably represents the paper's 0.1 tu cost
// granularity without rounding.
package rtime

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Time is an instant of virtual time, in nanoseconds since system start.
type Time int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond

	// TU is one paper "time unit" (1 ms of virtual time).
	TU = Millisecond
)

// Forever is a sentinel instant later than any instant reached by an engine.
const Forever Time = math.MaxInt64

// Never is the zero-capable sentinel used for "no event scheduled".
const Never Time = math.MaxInt64

// TUs converts a quantity of paper time units to a Duration, rounding to the
// nearest nanosecond.
func TUs(tu float64) Duration {
	return Duration(math.Round(tu * float64(TU)))
}

// AtTU converts a quantity of paper time units to an instant.
func AtTU(tu float64) Time {
	return Time(TUs(tu))
}

// TUs reports the duration in paper time units.
func (d Duration) TUs() float64 { return float64(d) / float64(TU) }

// TUs reports the instant in paper time units since system start.
func (t Time) TUs() float64 { return float64(t) / float64(TU) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Min returns the earlier of two instants.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinDur returns the smaller of two durations.
func MinDur(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// MaxDur returns the larger of two durations.
func MaxDur(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// DivCeil returns ceil(a/b) for positive b.
func DivCeil(a, b Duration) int64 {
	if b <= 0 {
		panic("rtime: DivCeil by non-positive duration")
	}
	if a <= 0 {
		return 0
	}
	return int64((a + b - 1) / b)
}

// DivFloor returns floor(a/b) for positive b and non-negative a.
func DivFloor(a, b Duration) int64 {
	if b <= 0 {
		panic("rtime: DivFloor by non-positive duration")
	}
	if a < 0 {
		return -DivCeil(-a, b)
	}
	return int64(a / b)
}

// String formats a duration in time units, e.g. "3tu" or "2.5tu".
func (d Duration) String() string { return formatTU(float64(d)/float64(TU)) + "tu" }

// String formats an instant in time units, e.g. "t=12tu".
func (t Time) String() string { return "t=" + formatTU(float64(t)/float64(TU)) + "tu" }

func formatTU(v float64) string {
	s := strconv.FormatFloat(v, 'f', 6, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}

// ParseDuration parses durations written in time units ("3tu", "2.5tu"),
// milliseconds ("3ms"), microseconds ("250us"), or bare numbers interpreted
// as time units ("3"). NaN, infinities and values beyond the int64
// nanosecond range are errors.
func ParseDuration(s string) (Duration, error) {
	orig := s
	s = strings.TrimSpace(s)
	unit := TU
	switch {
	case strings.HasSuffix(s, "tu"):
		s = strings.TrimSuffix(s, "tu")
	case strings.HasSuffix(s, "ms"):
		s, unit = strings.TrimSuffix(s, "ms"), Millisecond
	case strings.HasSuffix(s, "us"):
		s, unit = strings.TrimSuffix(s, "us"), Microsecond
	case strings.HasSuffix(s, "ns"):
		s, unit = strings.TrimSuffix(s, "ns"), Nanosecond
	case strings.HasSuffix(s, "s"):
		s, unit = strings.TrimSuffix(s, "s"), Second
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("rtime: cannot parse duration %q: %v", orig, err)
	}
	ns := math.Round(v * float64(unit))
	// Converting NaN or a float outside [-2⁶³, 2⁶³) to int64 is
	// implementation-defined, so check before converting.
	if math.IsNaN(ns) || math.IsInf(ns, 0) {
		return 0, fmt.Errorf("rtime: duration %q is not finite", orig)
	}
	if ns < -(1<<63) || ns >= 1<<63 {
		return 0, fmt.Errorf("rtime: duration %q is out of range", orig)
	}
	return Duration(ns), nil
}
