package harness

import (
	"sync/atomic"

	"rtsj/internal/obs"
)

// Stats is the harness's observability hook set: high-water marks of how
// busy the shared worker pool actually gets and how deep ReduceN's
// reorder window runs. Process-wide (like the pool itself), installed
// with SetStats. Fields may be nil; a nil *Stats disables the layer.
type Stats struct {
	// BusyMax is the high-water mark of work units executing at once
	// across every concurrent Map/ReduceN in the process.
	BusyMax *obs.Gauge
	// WindowMax is the high-water mark of ReduceN's reorder window —
	// completed results parked waiting for a slow lower index.
	WindowMax *obs.Gauge
}

// NewStats builds a Stats wired to registry r under "harness."-prefixed
// metric names. A nil registry yields nil instruments.
func NewStats(r *obs.Registry) *Stats {
	return &Stats{
		BusyMax:   r.Gauge("harness.workers_busy_max"),
		WindowMax: r.Gauge("harness.reorder_window_max"),
	}
}

// stats is the installed hook set (nil when observation is off) and
// busyUnits the live count of in-flight work units feeding BusyMax.
var (
	stats     atomic.Pointer[Stats]
	busyUnits atomic.Int64
)

// SetStats installs (or, with nil, removes) the process-wide harness
// stats. Safe to call at any time; the cmd front-ends wire it once at
// startup. Counting costs two atomic ops per work unit when installed
// and one pointer load when not.
func SetStats(s *Stats) { stats.Store(s) }

// unitStart counts a work unit entering execution; returns whether a
// matching unitEnd is owed (avoids the extra atomics when stats are off).
func unitStart() bool {
	s := stats.Load()
	if s == nil {
		return false
	}
	s.BusyMax.Max(busyUnits.Add(1))
	return true
}

// unitEnd counts a work unit leaving execution.
func unitEnd() { busyUnits.Add(-1) }

// noteWindow records the reorder-window occupancy after a result parked.
func noteWindow(n int) {
	if s := stats.Load(); s != nil {
		s.WindowMax.Max(int64(n))
	}
}
