// Package metrics computes the paper's evaluation measures over aperiodic
// events: per-system average response time of served events, served ratio
// and interrupted ratio, and per-set averages of those (AART, ASR, AIR —
// Section 6.1).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"rtsj/internal/core"
	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

// Event is one aperiodic event outcome, the unit of measurement.
type Event struct {
	Name        string     // event name, matching the job it came from
	Released    rtime.Time // firing instant
	Finished    rtime.Time // completion instant, when Served
	Served      bool       // the handler ran to completion
	Interrupted bool       // the handler was interrupted mid-service
	// Shed marks an event dropped at registration by an overloaded server
	// (core.TaskServer.SetMaxPending): never queued, never served.
	Shed bool
}

// Response returns the response time in time units (served events only).
func (e Event) Response() float64 {
	if !e.Served {
		return 0
	}
	return e.Finished.Sub(e.Released).TUs()
}

// FromSimResult extracts events from a simulator run.
func FromSimResult(r *sim.Result) []Event {
	n := 0
	for _, j := range r.Jobs {
		if !j.Periodic {
			n++
		}
	}
	return AppendSimEvents(make([]Event, 0, n), r)
}

// AppendSimEvents appends the events of a simulator run to dst and
// returns the extended slice: one event per aperiodic job, in release
// order (periodic jobs are skipped). A caller that folds one system at a
// time passes the previous system's dst[:0] and allocates nothing once
// dst has grown to the largest system.
func AppendSimEvents(dst []Event, r *sim.Result) []Event {
	for _, j := range r.Jobs {
		if j.Periodic {
			continue
		}
		dst = append(dst, Event{
			Name:        j.Name(),
			Released:    j.Release,
			Finished:    j.Finish,
			Served:      j.Finished,
			Interrupted: j.Aborted,
		})
	}
	return dst
}

// FromRecords extracts events from a task server's records.
func FromRecords(recs []*core.EventRecord) []Event {
	return AppendRecordEvents(make([]Event, 0, len(recs)), recs)
}

// AppendRecordEvents appends the events of a task server's records to dst
// and returns the extended slice: one event per record, in record order.
// Like AppendSimEvents, it allocates nothing once dst has grown to the
// largest system.
func AppendRecordEvents(dst []Event, recs []*core.EventRecord) []Event {
	for _, r := range recs {
		dst = append(dst, Event{
			Name:        r.Handler,
			Released:    r.Released,
			Finished:    r.Finished,
			Served:      r.Served,
			Interrupted: r.Interrupted,
			Shed:        r.Shed,
		})
	}
	return dst
}

// Summary holds the per-system measures of Section 6.1.
type Summary struct {
	Total       int // aperiodic events observed
	Served      int // events served to completion
	Interrupted int // events interrupted mid-service
	// Shed counts events dropped at registration under overload.
	Shed int
	// AvgResponse is the average response time of served events, in tu.
	AvgResponse float64
	// MaxResponse is the largest observed response time, in tu.
	MaxResponse float64
	// ServedRatio is Served/Total; InterruptedRatio is Interrupted/Total.
	ServedRatio      float64
	InterruptedRatio float64 // Interrupted/Total
}

// Summarize computes the per-system measures.
func Summarize(events []Event) Summary {
	s := Summary{Total: len(events)}
	sum := 0.0
	for _, e := range events {
		if e.Interrupted {
			s.Interrupted++
		}
		if e.Shed {
			s.Shed++
		}
		if !e.Served {
			continue
		}
		s.Served++
		r := e.Response()
		sum += r
		if r > s.MaxResponse {
			s.MaxResponse = r
		}
	}
	if s.Served > 0 {
		s.AvgResponse = sum / float64(s.Served)
	}
	if s.Total > 0 {
		s.ServedRatio = float64(s.Served) / float64(s.Total)
		s.InterruptedRatio = float64(s.Interrupted) / float64(s.Total)
	}
	return s
}

// ResponsePercentile returns the p-th percentile (0..100) of the response
// times of served events, in time units — useful beyond the paper's
// averages when comparing policy tails.
func ResponsePercentile(events []Event, p float64) float64 {
	var rs []float64
	for _, e := range events {
		if e.Served {
			rs = append(rs, e.Response())
		}
	}
	if len(rs) == 0 {
		return 0
	}
	sort.Float64s(rs)
	if p <= 0 {
		return rs[0]
	}
	if p >= 100 {
		return rs[len(rs)-1]
	}
	// Nearest-rank.
	rank := int(math.Ceil(p/100*float64(len(rs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return rs[rank]
}

// SetSummary holds the per-set averages reported in Tables 2-5.
type SetSummary struct {
	// AART is the average of the per-system average response times (tu).
	AART float64
	// AIR is the average interrupted-aperiodics ratio.
	AIR float64
	// ASR is the average served-aperiodics ratio.
	ASR float64
	// Systems is the number of systems aggregated.
	Systems int
}

// Aggregate averages per-system summaries into the paper's set measures.
// Systems that served no event contribute 0 to the response-time average,
// matching a plain mean over systems.
func Aggregate(summaries []Summary) SetSummary {
	out := SetSummary{Systems: len(summaries)}
	if len(summaries) == 0 {
		return out
	}
	for _, s := range summaries {
		out.AART += s.AvgResponse
		out.AIR += s.InterruptedRatio
		out.ASR += s.ServedRatio
	}
	n := float64(len(summaries))
	out.AART /= n
	out.AIR /= n
	out.ASR /= n
	return out
}

// String formats the set summary like a paper table cell.
func (s SetSummary) String() string {
	return fmt.Sprintf("AART=%.2f AIR=%.2f ASR=%.2f", s.AART, s.AIR, s.ASR)
}
