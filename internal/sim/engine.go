package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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
	// owned marks a Runner's result, whose storage the Runner reuses.
	owned bool
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

// jobPool recycles Job records across runs: the engine allocates every job
// from it (fully overwriting the record on reuse), and Result.Recycle
// returns a run's jobs to it. A campaign that recycles each result as soon
// as its metrics are folded keeps a bounded working set of Job records no
// matter how many systems it simulates.
var jobPool = sync.Pool{New: func() any { return new(Job) }}

// jobsSlicePool recycles the Result.Jobs backing arrays alongside the jobs.
var jobsSlicePool = sync.Pool{New: func() any { return new([]*Job) }}

// Recycle returns the result's Job records and their backing slice to the
// engine's allocation pools. Call it only once, and only when nothing will
// touch the result again — including the slices returned by Aperiodics and
// Periodics and the *Job pointers inside them (names and other values
// copied out of jobs stay valid). Recycling is optional: results that are
// never recycled are simply garbage collected. On a Runner's result it
// does nothing: the Runner reuses that storage itself.
func (r *Result) Recycle() {
	if r.owned {
		return
	}
	for _, j := range r.Jobs {
		jobPool.Put(j)
	}
	jobs := r.Jobs[:0]
	jobsSlicePool.Put(&jobs)
	r.Jobs, r.aperiodics, r.periodics, r.split = nil, nil, nil, false
}

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
	if t, ok := sink.(*trace.Trace); ok && t == nil {
		sink = nil // typed-nil *Trace means "no recording", like untyped nil
	}
	rec := true
	if sink == nil {
		sink, rec = trace.Nop{}, false
	} else if _, nop := sink.(trace.Nop); nop {
		rec = false
	}
	e := &engine{
		sys:     sys,
		d:       d,
		horizon: horizon,
		sink:    sink,
		rec:     rec,
		cal:     cal,
		jobs:    *jobsSlicePool.Get().(*[]*Job),
	}
	e.init()
	if err := e.run(); err != nil {
		return nil, err
	}
	res := &Result{Jobs: e.jobs, PeriodicMisses: e.misses, Horizon: horizon}
	if tr, ok := sink.(*trace.Trace); ok {
		res.Trace = tr
	}
	return res, nil
}

// engine is one simulation run. sim.Run builds a fresh engine per run and
// takes its job records from jobPool; a Runner keeps one engine and
// reuses its calendar, index and job storage across runs, taking job
// records from its slab. Both run the same event loop.
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
	slab   *jobSlab // job record source; nil takes records from jobPool
	misses int
	seq    int64
}

// newJob returns a job record for the engine to overwrite in full.
func (e *engine) newJob() *Job {
	if e.slab != nil {
		return e.slab.next()
	}
	return jobPool.Get().(*Job)
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
	j := e.newJob()
	// The whole-record composite assignment clears every stale field of a
	// recycled job.
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
	j := e.newJob()
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
