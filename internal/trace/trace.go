// Package trace records what happened during a simulated or emulated
// execution: which entity occupied the processor when, and point events such
// as arrivals, completions, interruptions and capacity changes.
//
// Both engines (the discrete-event simulator in internal/sim and the
// virtual-time executive in internal/exec) emit the same trace format, so
// executions and simulations can be rendered and compared with the same
// tooling — this mirrors the paper's side-by-side temporal diagrams
// (Figures 2–4).
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"rtsj/internal/rtime"
)

// EventKind classifies a point event on a trace row.
type EventKind int

// Point event kinds.
const (
	Arrival     EventKind = iota // a job or asynchronous event was released
	Completion                   // a job or handler finished normally
	Interrupted                  // a handler was asynchronously interrupted
	DeadlineMiss
	Replenish    // a server recovered its capacity
	CapacityLost // a polling server dropped its remaining capacity
	Shed         // a server dropped a release under overload (load shedding)
	Custom
)

// String returns a short name for the event kind.
func (k EventKind) String() string {
	switch k {
	case Arrival:
		return "arrival"
	case Completion:
		return "completion"
	case Interrupted:
		return "interrupted"
	case DeadlineMiss:
		return "deadline-miss"
	case Replenish:
		return "replenish"
	case CapacityLost:
		return "capacity-lost"
	case Shed:
		return "shed"
	default:
		return "custom"
	}
}

// marker is the Gantt glyph for each event kind.
func (k EventKind) marker() byte {
	switch k {
	case Arrival:
		return '^'
	case Completion:
		return 'v'
	case Interrupted:
		return 'x'
	case DeadlineMiss:
		return '!'
	case Replenish:
		return 'r'
	case CapacityLost:
		return 'l'
	case Shed:
		return 's'
	default:
		return '*'
	}
}

// Segment is a half-open interval [Start, End) during which Entity occupied
// the processor. Label optionally names the work performed (for a server,
// the handler being served).
type Segment struct {
	// Entity names the trace row (the thread or task that ran).
	Entity string
	// Start and End delimit the half-open execution interval.
	Start, End rtime.Time
	// Label optionally names the work performed.
	Label string
	// CPU is the virtual CPU the segment ran on (always 0 for the
	// uniprocessor engines; the SMP executive records real indices).
	CPU int
}

// Dur returns the segment length.
func (s Segment) Dur() rtime.Duration { return s.End.Sub(s.Start) }

// Event is a point event attached to an entity's row.
type Event struct {
	// Entity names the trace row the event belongs to.
	Entity string
	// At is the event instant.
	At rtime.Time
	// Kind classifies the event (release, completion, interruption, ...).
	Kind EventKind
	// Label optionally annotates the event.
	Label string
}

// Sink receives schedule recordings from an engine. *Trace is the
// accumulating implementation; Nop discards everything, which lets
// metrics-only runs (the table and matrix cells) skip all trace
// bookkeeping and its allocations.
type Sink interface {
	// DeclareEntity registers a row before any segment is recorded.
	DeclareEntity(name string)
	// Run records that entity executed over [start, end).
	Run(entity string, start, end rtime.Time, label string)
	// Mark records a point event.
	Mark(entity string, at rtime.Time, kind EventKind, label string)
}

// CPUSink is the optional Sink extension for engines that schedule more
// than one virtual CPU: RunOn is Run with an explicit CPU index. Engines
// probe for it once with a type assertion and fall back to Run (CPU 0)
// when the sink does not care.
type CPUSink interface {
	Sink
	// RunOn records that entity executed over [start, end) on cpu.
	RunOn(entity string, cpu int, start, end rtime.Time, label string)
}

// Nop is a Sink that discards every recording.
type Nop struct{}

// DeclareEntity implements Sink.
func (Nop) DeclareEntity(string) {}

// Run implements Sink.
func (Nop) Run(string, rtime.Time, rtime.Time, string) {}

// RunOn implements CPUSink.
func (Nop) RunOn(string, int, rtime.Time, rtime.Time, string) {}

// Mark implements Sink.
func (Nop) Mark(string, rtime.Time, EventKind, string) {}

// Trace accumulates segments and events for one run. The zero value is
// ready to use. Trace is not safe for concurrent use; both engines are
// single-threaded at the points where they record.
type Trace struct {
	// Segments is every execution interval, in recording order.
	Segments []Segment
	// Events is every point event, in recording order.
	Events []Event

	order map[string]int
	names []string
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Both implementations satisfy Sink and the CPU-aware extension.
var (
	_ CPUSink = (*Trace)(nil)
	_ CPUSink = Nop{}
)

func (tr *Trace) noteEntity(name string) {
	if tr.order == nil {
		tr.order = make(map[string]int)
	}
	if _, ok := tr.order[name]; !ok {
		tr.order[name] = len(tr.names)
		tr.names = append(tr.names, name)
	}
}

// DeclareEntity registers a row (and its display position) before any
// segment is recorded, so idle entities still appear in the Gantt chart.
func (tr *Trace) DeclareEntity(name string) { tr.noteEntity(name) }

// Run records that entity executed over [start, end) on CPU 0.
// Zero-length segments are dropped. Adjacent segments with equal label
// are merged.
func (tr *Trace) Run(entity string, start, end rtime.Time, label string) {
	tr.RunOn(entity, 0, start, end, label)
}

// RunOn records that entity executed over [start, end) on cpu
// (CPUSink). Zero-length segments are dropped. Adjacent segments with
// equal label and CPU are merged — the SMP executive re-places an
// occupant on the same CPU across consecutive slices, so the CPU
// condition only splits segments at real migrations.
func (tr *Trace) RunOn(entity string, cpu int, start, end rtime.Time, label string) {
	if end <= start {
		return
	}
	tr.noteEntity(entity)
	if n := len(tr.Segments); n > 0 {
		last := &tr.Segments[n-1]
		if last.Entity == entity && last.End == start && last.Label == label && last.CPU == cpu {
			last.End = end
			return
		}
	}
	tr.Segments = append(tr.Segments, Segment{Entity: entity, Start: start, End: end, Label: label, CPU: cpu})
}

// Mark records a point event.
func (tr *Trace) Mark(entity string, at rtime.Time, kind EventKind, label string) {
	tr.noteEntity(entity)
	tr.Events = append(tr.Events, Event{Entity: entity, At: at, Kind: kind, Label: label})
}

// Entities returns row names in first-seen order.
func (tr *Trace) Entities() []string {
	out := make([]string, len(tr.names))
	copy(out, tr.names)
	return out
}

// BusyTime returns the total time entity occupied the processor.
func (tr *Trace) BusyTime(entity string) rtime.Duration {
	var total rtime.Duration
	for _, s := range tr.Segments {
		if s.Entity == entity {
			total += s.Dur()
		}
	}
	return total
}

// TotalBusy returns the processor busy time across all entities.
func (tr *Trace) TotalBusy() rtime.Duration {
	var total rtime.Duration
	for _, s := range tr.Segments {
		total += s.Dur()
	}
	return total
}

// End returns the latest instant covered by any segment or event.
func (tr *Trace) End() rtime.Time {
	var end rtime.Time
	for _, s := range tr.Segments {
		end = rtime.Max(end, s.End)
	}
	for _, e := range tr.Events {
		end = rtime.Max(end, e.At)
	}
	return end
}

// Fingerprint returns a 64-bit FNV-1a hash of the recorded schedule: every
// segment (entity, start, end, label, CPU), then every event (entity,
// instant, kind, label), in recording order. Strings are length-prefixed
// so field boundaries cannot alias. Equal schedules hash equally, so a
// test can pin a reference schedule by this one value.
func (tr *Trace) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		num(int64(len(s)))
		io.WriteString(h, s)
	}
	for _, s := range tr.Segments {
		str(s.Entity)
		num(int64(s.Start))
		num(int64(s.End))
		str(s.Label)
		num(int64(s.CPU))
	}
	for _, e := range tr.Events {
		str(e.Entity)
		num(int64(e.At))
		num(int64(e.Kind))
		str(e.Label)
	}
	return h.Sum64()
}

// CheckSingleCPU verifies that no two segments overlap in time — the
// fundamental invariant of a uniprocessor schedule.
func (tr *Trace) CheckSingleCPU() error { return tr.CheckCPUs(1) }

// CheckCPUs verifies that at most m segments overlap at any instant — the
// occupancy invariant of an m-CPU schedule (m = 1 is the uniprocessor
// check). Segments must have been recorded in chronological order (both
// engines do).
func (tr *Trace) CheckCPUs(m int) error {
	segs := make([]Segment, len(tr.Segments))
	copy(segs, tr.Segments)
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start })
	var active []Segment // overlapping window, bounded by m
	for _, s := range segs {
		live := active[:0]
		for _, a := range active {
			if a.End > s.Start {
				live = append(live, a)
			}
		}
		active = append(live, s)
		if len(active) > m {
			prev := active[len(active)-2]
			return fmt.Errorf("trace: %d segments overlap on %d CPU(s): %s[%v,%v) and %s[%v,%v)",
				len(active), m,
				prev.Entity, prev.Start, prev.End,
				s.Entity, s.Start, s.End)
		}
	}
	return nil
}

// SegmentsOf returns the segments for one entity, in recorded order.
func (tr *Trace) SegmentsOf(entity string) []Segment {
	var out []Segment
	for _, s := range tr.Segments {
		if s.Entity == entity {
			out = append(out, s)
		}
	}
	return out
}

// EventsOf returns the point events for one entity, in recorded order.
func (tr *Trace) EventsOf(entity string) []Event {
	var out []Event
	for _, e := range tr.Events {
		if e.Entity == entity {
			out = append(out, e)
		}
	}
	return out
}

// GanttOptions controls rendering.
type GanttOptions struct {
	// Scale is the duration represented by one column. Defaults to 1 tu.
	Scale rtime.Duration
	// Until clips the chart; defaults to the trace end rounded up to Scale.
	Until rtime.Time
	// AxisEvery labels the axis every N columns. Defaults to 6.
	AxisEvery int
}

// Gantt renders the trace as an ASCII temporal diagram in the style of the
// paper's Figures 2–4. Each entity has a row of '#' (running) and '.'
// (not running); '+' marks a column only partially occupied. A marker row
// below shows point events (^ arrival, v completion, x interruption,
// r replenishment, l capacity lost, ! deadline miss).
func (tr *Trace) Gantt(opts GanttOptions) string {
	scale := opts.Scale
	if scale <= 0 {
		scale = rtime.TU
	}
	until := opts.Until
	if until == 0 {
		until = tr.End()
	}
	cols := int(rtime.DivCeil(rtime.Duration(until), scale))
	if cols <= 0 {
		cols = 1
	}
	axisEvery := opts.AxisEvery
	if axisEvery <= 0 {
		axisEvery = 6
	}

	nameW := 0
	for _, n := range tr.names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	if nameW < 4 {
		nameW = 4
	}

	var b strings.Builder
	// Axis.
	fmt.Fprintf(&b, "%-*s ", nameW, "t(tu)")
	axis := make([]byte, cols)
	for i := range axis {
		axis[i] = ' '
	}
	for c := 0; c < cols; c += axisEvery {
		lbl := rtime.Duration(rtime.Time(c) * rtime.Time(scale)).String()
		lbl = strings.TrimSuffix(lbl, "tu")
		for i, ch := range []byte(lbl) {
			if c+i < cols {
				axis[c+i] = ch
			}
		}
	}
	b.Write(axis)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-*s ", nameW, "")
	for c := 0; c < cols; c++ {
		if c%axisEvery == 0 {
			b.WriteByte('|')
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteByte('\n')

	for _, name := range tr.names {
		row := make([]byte, cols)
		fill := make([]rtime.Duration, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range tr.Segments {
			if s.Entity != name {
				continue
			}
			for c := 0; c < cols; c++ {
				cs := rtime.Time(c) * rtime.Time(scale)
				ce := cs.Add(scale)
				lo := rtime.Max(cs, s.Start)
				hi := rtime.Min(ce, s.End)
				if hi > lo {
					fill[c] += hi.Sub(lo)
				}
			}
		}
		for c := 0; c < cols; c++ {
			switch {
			case fill[c] >= scale:
				row[c] = '#'
			case fill[c] > 0:
				row[c] = '+'
			}
		}
		fmt.Fprintf(&b, "%-*s %s\n", nameW, name, row)

		marks := make([]byte, cols)
		any := false
		for i := range marks {
			marks[i] = ' '
		}
		for _, e := range tr.Events {
			if e.Entity != name {
				continue
			}
			c := int(rtime.DivFloor(rtime.Duration(e.At), scale))
			if c >= cols {
				c = cols - 1
			}
			if c < 0 {
				c = 0
			}
			marks[c] = e.Kind.marker()
			any = true
		}
		if any {
			fmt.Fprintf(&b, "%-*s %s\n", nameW, "", marks)
		}
	}
	return b.String()
}
