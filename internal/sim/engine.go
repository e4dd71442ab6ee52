package sim

import (
	"cmp"
	"fmt"
	"slices"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Dispatcher is a scheduling policy plugged into the engine. The engine owns
// time and job generation; the dispatcher owns the ready state and decides
// who runs.
//
// Protocol, at every decision instant `now`:
//  1. the engine delivers all releases due at now via Release;
//  2. the engine calls Tick(now) so the dispatcher processes its internal
//     events (replenishments, latest-start-time expiries, ...);
//  3. the engine calls Pick(now) and runs the returned job for at most
//     maxSlice, bounded also by the next release, the next internal event
//     (NextEvent) and the horizon;
//  4. consumed time is reported via Consumed; completion via Completed.
//
// After Tick(now) returns, NextEvent must be strictly after now.
type Dispatcher interface {
	Name() string
	Release(now rtime.Time, j *Job)
	Tick(now rtime.Time)
	Pick(now rtime.Time) (j *Job, maxSlice rtime.Duration)
	NextEvent(now rtime.Time) rtime.Time
	Consumed(now rtime.Time, j *Job, delta rtime.Duration)
	Completed(now rtime.Time, j *Job)
}

// IdleObserver is an optional Dispatcher extension: the engine reports
// intervals during which the processor idled. The Priority Exchange server
// needs it (idle time consumes preserved capacity).
type IdleObserver interface {
	Idle(now rtime.Time, delta rtime.Duration)
}

// Result collects everything measured during a run. Like trace.Trace it is
// not safe for concurrent use: Aperiodics/Periodics (and Job.Name) cache
// lazily on first call.
type Result struct {
	// Trace is the recorded schedule, nil for metrics-only runs.
	Trace *trace.Trace
	// Jobs holds every job instance created during the run, in release
	// order (ties: periodic before aperiodic, then creation order).
	Jobs []*Job
	// PeriodicMisses counts periodic job deadline misses.
	PeriodicMisses int
	// Horizon is the simulated window the run covered.
	Horizon rtime.Time

	// The periodic/aperiodic partition is computed once on first use and
	// cached: metrics code calls Aperiodics repeatedly.
	split      bool
	aperiodics []*Job
	periodics  []*Job
}

func (r *Result) partition() {
	nAp := 0
	for _, j := range r.Jobs {
		if !j.Periodic {
			nAp++
		}
	}
	r.aperiodics = make([]*Job, 0, nAp)
	r.periodics = make([]*Job, 0, len(r.Jobs)-nAp)
	for _, j := range r.Jobs {
		if j.Periodic {
			r.periodics = append(r.periodics, j)
		} else {
			r.aperiodics = append(r.aperiodics, j)
		}
	}
	r.split = true
}

// Recycle does nothing. Job records come from storage that belongs to the
// run: a sim.Run result's storage is garbage collected with it, and a
// Runner reuses its own on the next Run. Code that simulates many systems
// and wants a flat heap should run them on one Runner.
func (r *Result) Recycle() {}

// Aperiodics returns the aperiodic job records, in release order.
func (r *Result) Aperiodics() []*Job {
	if !r.split {
		r.partition()
	}
	return r.aperiodics
}

// Periodics returns the periodic job records, in release order.
func (r *Result) Periodics() []*Job {
	if !r.split {
		r.partition()
	}
	return r.periodics
}

// Run simulates sys under the dispatcher until the horizon and returns the
// result. With a nil trace the run records nothing (Result.Trace is nil):
// the metrics-only fast path used by the table and matrix experiments.
func Run(sys System, d Dispatcher, horizon rtime.Time, tr *trace.Trace) (*Result, error) {
	return RunWithSink(sys, d, horizon, tr)
}

// RunWithSink simulates sys, streaming schedule recordings into sink. A nil
// sink (or trace.Nop) disables recording entirely — the engine then also
// skips job-name formatting for every trace label. When sink is a
// *trace.Trace it is returned in Result.Trace.
func RunWithSink(sys System, d Dispatcher, horizon rtime.Time, sink trace.Sink) (*Result, error) {
	return runWithCalendar(sys, d, horizon, sink, &heapCalendar{})
}

func runWithCalendar(sys System, d Dispatcher, horizon rtime.Time, sink trace.Sink, cal calendar) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	res, err := new(engine).simulate(sys, d, horizon, sink, cal)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// engine is one simulation run. sim.Run simulates on a fresh engine; a
// Runner keeps one engine and so reuses its index, job slice and slab of
// job records across runs. Both run the same setup and event loop.
type engine struct {
	sys     System
	d       Dispatcher
	horizon rtime.Time
	sink    trace.Sink
	rec     bool // false: skip recording and trace-label formatting

	now    rtime.Time
	cal    calendar
	apSort []int // aperiodic indices sorted by release
	jobs   []*Job
	slab   jobSlab // job record source
	misses int
	seq    int64
}

// simulate runs the validated system sys under d until horizon, with
// releases pending in cal (which must be empty), and returns the result.
// It keeps the storage of the previous run's index, job slice and slab, so
// the records of that run's Result are overwritten.
func (e *engine) simulate(sys System, d Dispatcher, horizon rtime.Time, sink trace.Sink, cal calendar) (Result, error) {
	if t, ok := sink.(*trace.Trace); ok && t == nil {
		sink = nil // typed-nil *Trace means "no recording", like untyped nil
	}
	rec := true
	if sink == nil {
		sink, rec = trace.Nop{}, false
	} else if _, nop := sink.(trace.Nop); nop {
		rec = false
	}
	*e = engine{
		sys:     sys,
		d:       d,
		horizon: horizon,
		sink:    sink,
		rec:     rec,
		cal:     cal,
		apSort:  e.apSort,
		jobs:    e.jobs[:0],
		slab:    jobSlab{chunks: e.slab.chunks},
	}
	e.init()
	if err := e.run(); err != nil {
		return Result{}, err
	}
	res := Result{Jobs: e.jobs, PeriodicMisses: e.misses, Horizon: horizon}
	if tr, ok := sink.(*trace.Trace); ok {
		res.Trace = tr
	}
	return res, nil
}

func (e *engine) init() {
	for i, t := range e.sys.Periodics {
		e.cal.push(release{at: t.Offset, idx: i})
		if e.rec {
			e.sink.DeclareEntity(t.Name)
		}
	}
	aps := e.sys.Aperiodics
	e.jobs = slices.Grow(e.jobs, len(aps))
	if cap(e.apSort) < len(aps) {
		e.apSort = make([]int, len(aps))
	}
	e.apSort = e.apSort[:len(aps)]
	for i := range e.apSort {
		e.apSort[i] = i
	}
	// A stable sort keeps equal releases in declaration order. Generated
	// arrivals come sorted already, which one pass confirms.
	byRelease := func(a, b int) int { return cmp.Compare(aps[a].Release, aps[b].Release) }
	if !slices.IsSortedFunc(e.apSort, byRelease) {
		slices.SortStableFunc(e.apSort, byRelease)
	}
	if len(e.apSort) > 0 {
		e.cal.push(release{at: aps[e.apSort[0]].Release, ap: true, idx: 0})
	}
}

// deliverReleases creates and delivers all jobs released at or before now,
// popping the calendar until the next release is in the future. Delivery
// order matches the seed engine: at equal instants, periodic releases in
// task order before aperiodic arrivals in release order.
func (e *engine) deliverReleases() {
	for {
		r, ok := e.cal.popDue(e.now)
		if !ok {
			return
		}
		if !r.ap {
			e.releasePeriodic(r)
		} else {
			e.releaseAperiodic(r)
		}
	}
}

func (e *engine) releasePeriodic(r release) {
	t := &e.sys.Periodics[r.idx]
	rel := r.at
	j := e.slab.next()
	// The whole-record composite assignment clears every stale field of a
	// reused job record.
	*j = Job{
		Periodic:  true,
		Release:   rel,
		AbsDL:     rel.Add(t.RelDeadline()),
		Cost:      t.Cost,
		Remaining: t.Cost,
		Priority:  t.Priority,
		Entity:    t.Name,
		instance:  int64(rel/rtime.Time(t.Period)) + 1,
		seq:       e.seq,
		taskIdx:   r.idx,
		apIdx:     -1,
	}
	e.seq++
	e.cal.push(release{at: rel.Add(t.Period), idx: r.idx})
	e.jobs = append(e.jobs, j)
	if e.rec {
		e.sink.Mark(t.Name, rel, trace.Arrival, j.Name())
	}
	e.d.Release(rel, j)
}

func (e *engine) releaseAperiodic(r release) {
	idx := e.apSort[r.idx]
	a := &e.sys.Aperiodics[idx]
	name := a.Name
	if name == "" {
		name = AperiodicName(idx)
	}
	dl := rtime.Forever
	if a.Deadline > 0 {
		dl = a.Release.Add(a.Deadline)
	}
	j := e.slab.next()
	*j = Job{
		name:      name,
		Release:   a.Release,
		AbsDL:     dl,
		Cost:      a.Cost,
		Declared:  a.DeclaredCost(),
		Value:     a.value(),
		Remaining: a.Cost,
		Entity:    name, // dispatcher may reattribute to the server row
		seq:       e.seq,
		taskIdx:   -1,
		apIdx:     idx,
	}
	e.seq++
	if r.idx+1 < len(e.apSort) {
		e.cal.push(release{
			at:  e.sys.Aperiodics[e.apSort[r.idx+1]].Release,
			ap:  true,
			idx: r.idx + 1,
		})
	}
	e.jobs = append(e.jobs, j)
	e.d.Release(a.Release, j)
	if e.rec {
		e.sink.Mark(j.Entity, a.Release, trace.Arrival, name)
	}
}

func (e *engine) run() error {
	guard := 0
	for e.now < e.horizon {
		e.deliverReleases()
		e.d.Tick(e.now)

		j, maxSlice := e.d.Pick(e.now)

		tNext := rtime.Min(e.horizon, e.cal.next())
		tNext = rtime.Min(tNext, e.d.NextEvent(e.now))

		if j == nil {
			if tNext <= e.now {
				return fmt.Errorf("sim: dispatcher %s reports event at %v not after now=%v",
					e.d.Name(), tNext, e.now)
			}
			if obs, ok := e.d.(IdleObserver); ok {
				obs.Idle(tNext, tNext.Sub(e.now))
			}
			e.now = tNext
			continue
		}

		slice := rtime.MinDur(j.Remaining, tNext.Sub(e.now))
		if maxSlice > 0 {
			slice = rtime.MinDur(slice, maxSlice)
		}
		if slice <= 0 {
			guard++
			if guard > 4 {
				return fmt.Errorf("sim: no progress at %v running %s (dispatcher %s)",
					e.now, j.Name(), e.d.Name())
			}
			continue
		}
		guard = 0

		entity := j.Entity
		if e.rec {
			e.sink.Run(entity, e.now, e.now.Add(slice), j.Label)
		}
		j.Started = true
		j.Remaining -= slice
		end := e.now.Add(slice)
		e.d.Consumed(end, j, slice)
		e.now = end

		if j.Remaining == 0 && !j.Aborted {
			j.Finished = true
			j.Finish = e.now
			if e.rec {
				e.sink.Mark(entity, e.now, trace.Completion, j.Name())
			}
			if j.Periodic && j.AbsDL != rtime.Forever && e.now > j.AbsDL {
				e.misses++
				if e.rec {
					e.sink.Mark(entity, j.AbsDL, trace.DeadlineMiss, j.Name())
				}
			}
			e.d.Completed(e.now, j)
		} else if j.Aborted {
			if e.rec {
				e.sink.Mark(entity, e.now, trace.Interrupted, j.Name())
			}
		}
	}
	return nil
}
