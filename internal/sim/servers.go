package sim

import (
	"fmt"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// fifoQueue is the pending-events list shared by all server policies.
type fifoQueue struct{ q []*Job }

// reuse returns an empty queue on q's backing array: a server reset for
// the next run keeps its queue capacity.
func (f *fifoQueue) reuse() fifoQueue { return fifoQueue{q: f.q[:0]} }

func (f *fifoQueue) push(j *Job) { f.q = append(f.q, j) }
func (f *fifoQueue) empty() bool { return len(f.q) == 0 }
func (f *fifoQueue) head() *Job  { return f.q[0] }
func (f *fifoQueue) remove(j *Job) bool {
	for i, x := range f.q {
		if x == j {
			f.q = append(f.q[:i], f.q[i+1:]...)
			return true
		}
	}
	return false
}

// firstFitting returns the first queued job whose declared cost fits the
// given budget function, in FIFO order. This is the paper's
// chooseNextEvent: "the first handler in the list which has a cost lower
// than the remaining capacity", which can serve a later-released event
// before an earlier, larger one.
func (f *fifoQueue) firstFitting(budget func(*Job) rtime.Duration) *Job {
	for _, j := range f.q {
		if j.Declared <= budget(j) {
			return j
		}
	}
	return nil
}

func (f *fifoQueue) attribute(srvName string, j *Job) {
	j.Entity = srvName
	j.Label = j.Name()
}

// ---------------------------------------------------------------------------
// Ideal Polling Server (literature behaviour, resumable service).

type psIdeal struct {
	nm       string
	prio     int
	cs       rtime.Duration
	ts       rtime.Duration
	rem      rtime.Duration
	nextRepl rtime.Time
	queue    fifoQueue
}

func (s *psIdeal) reset(spec ServerSpec) {
	*s = psIdeal{nm: spec.name(), prio: spec.Priority, cs: spec.Capacity, ts: spec.Period, queue: s.queue.reuse()}
}

func (s *psIdeal) name() string  { return s.nm }
func (s *psIdeal) priority() int { return s.prio }

func (s *psIdeal) arrive(now rtime.Time, j *Job) {
	s.queue.attribute(s.nm, j)
	s.queue.push(j)
}

func (s *psIdeal) tick(now rtime.Time, tr *trace.Trace) {
	for now >= s.nextRepl {
		s.rem = s.cs
		if tr != nil {
			tr.Mark(s.nm, s.nextRepl, trace.Replenish, "")
		}
		s.nextRepl = s.nextRepl.Add(s.ts)
	}
	// A polling server discards its capacity as soon as it has nothing to
	// poll: at activation with an empty queue, or when the queue drains.
	if s.rem > 0 && s.queue.empty() {
		s.rem = 0
		if tr != nil {
			tr.Mark(s.nm, now, trace.CapacityLost, "")
		}
	}
}

func (s *psIdeal) pick(now rtime.Time) (*Job, rtime.Duration) {
	if s.rem <= 0 || s.queue.empty() {
		return nil, 0
	}
	return s.queue.head(), s.rem
}

func (s *psIdeal) nextEvent(now rtime.Time) rtime.Time { return s.nextRepl }

func (s *psIdeal) consumed(now rtime.Time, j *Job, delta rtime.Duration, tr *trace.Trace) {
	s.rem -= delta
	if s.rem < 0 {
		panic("sim: polling server capacity went negative")
	}
}

func (s *psIdeal) completed(now rtime.Time, j *Job) {
	if !s.queue.remove(j) {
		panic(fmt.Sprintf("sim: PS completed job %s not queued", j.Name()))
	}
}

// ---------------------------------------------------------------------------
// Ideal Deferrable Server (literature behaviour, resumable service).

type dsIdeal struct {
	nm       string
	prio     int
	cs       rtime.Duration
	ts       rtime.Duration
	rem      rtime.Duration
	nextRepl rtime.Time
	queue    fifoQueue
}

func (s *dsIdeal) reset(spec ServerSpec) {
	*s = dsIdeal{nm: spec.name(), prio: spec.Priority, cs: spec.Capacity, ts: spec.Period, queue: s.queue.reuse()}
}

func (s *dsIdeal) name() string  { return s.nm }
func (s *dsIdeal) priority() int { return s.prio }

func (s *dsIdeal) arrive(now rtime.Time, j *Job) {
	s.queue.attribute(s.nm, j)
	s.queue.push(j)
}

func (s *dsIdeal) tick(now rtime.Time, tr *trace.Trace) {
	for now >= s.nextRepl {
		s.rem = s.cs
		if tr != nil {
			tr.Mark(s.nm, s.nextRepl, trace.Replenish, "")
		}
		s.nextRepl = s.nextRepl.Add(s.ts)
	}
}

func (s *dsIdeal) pick(now rtime.Time) (*Job, rtime.Duration) {
	if s.rem <= 0 || s.queue.empty() {
		return nil, 0
	}
	return s.queue.head(), s.rem
}

func (s *dsIdeal) nextEvent(now rtime.Time) rtime.Time { return s.nextRepl }

func (s *dsIdeal) consumed(now rtime.Time, j *Job, delta rtime.Duration, tr *trace.Trace) {
	s.rem -= delta
	if s.rem < 0 {
		panic("sim: deferrable server capacity went negative")
	}
}

func (s *dsIdeal) completed(now rtime.Time, j *Job) {
	if !s.queue.remove(j) {
		panic(fmt.Sprintf("sim: DS completed job %s not queued", j.Name()))
	}
}

// ---------------------------------------------------------------------------
// Limited Polling Server: the paper's Java implementation semantics.
//
// A handler is admitted only if its *declared* cost fits the remaining
// capacity (handlers are not resumable in Java), and is then executed under
// a Timed budget equal to the remaining capacity: if its actual demand
// exceeds the budget it is asynchronously interrupted and discarded. If the
// serving burst overruns a period boundary, that activation is skipped
// (waitForNextPeriod returns at the following boundary), exactly as a
// periodic RealtimeThread would behave.

type psLimited struct {
	nm       string
	prio     int
	cs       rtime.Duration
	ts       rtime.Duration
	rem      rtime.Duration
	nextAct  rtime.Time
	sleeping bool
	cur      *Job
	budget   rtime.Duration
	queue    fifoQueue
}

func (s *psLimited) reset(spec ServerSpec) {
	*s = psLimited{
		nm:       spec.name(),
		prio:     spec.Priority,
		cs:       spec.Capacity,
		ts:       spec.Period,
		sleeping: true,
		nextAct:  0,
		queue:    s.queue.reuse(),
	}
}

func (s *psLimited) name() string  { return s.nm }
func (s *psLimited) priority() int { return s.prio }

func (s *psLimited) arrive(now rtime.Time, j *Job) {
	s.queue.attribute(s.nm, j)
	s.queue.push(j)
}

func (s *psLimited) tick(now rtime.Time, tr *trace.Trace) {
	if s.sleeping && now >= s.nextAct {
		// Periodic activation: recover full capacity.
		s.rem = s.cs
		s.sleeping = false
		if tr != nil {
			tr.Mark(s.nm, now, trace.Replenish, "")
		}
		for s.nextAct <= now {
			s.nextAct = s.nextAct.Add(s.ts)
		}
	}
	if !s.sleeping && s.cur == nil {
		s.cur = s.queue.firstFitting(func(*Job) rtime.Duration { return s.rem })
		if s.cur != nil {
			s.budget = s.rem
		} else {
			// chooseNextEvent returned null: lose the remaining capacity
			// and wait for the next period. Like waitForNextPeriod, skip
			// only the releases already past: a release due now (a burst
			// that ended exactly on a period boundary) activates the
			// server at once.
			if s.rem > 0 && tr != nil {
				tr.Mark(s.nm, now, trace.CapacityLost, "")
			}
			s.rem = 0
			s.sleeping = true
			for s.nextAct < now {
				s.nextAct = s.nextAct.Add(s.ts)
			}
			if s.nextAct == now {
				s.tick(now, tr)
			}
		}
	}
}

func (s *psLimited) pick(now rtime.Time) (*Job, rtime.Duration) {
	if s.sleeping || s.cur == nil {
		return nil, 0
	}
	return s.cur, s.budget
}

func (s *psLimited) nextEvent(now rtime.Time) rtime.Time {
	if s.sleeping {
		return s.nextAct
	}
	return rtime.Never
}

func (s *psLimited) consumed(now rtime.Time, j *Job, delta rtime.Duration, tr *trace.Trace) {
	if j != s.cur {
		panic("sim: PS-lim consumed for a job it is not serving")
	}
	s.budget -= delta
	s.rem -= delta
	if s.budget == 0 && j.Remaining > 0 {
		// Timed fired: the handler overran the capacity granted to it.
		j.Aborted = true
		j.AbortAt = now
		s.queue.remove(j)
		s.cur = nil
	}
}

func (s *psLimited) completed(now rtime.Time, j *Job) {
	if j != s.cur {
		panic("sim: PS-lim completed a job it is not serving")
	}
	if !s.queue.remove(j) {
		panic("sim: PS-lim completed job not queued")
	}
	s.cur = nil
}

// ---------------------------------------------------------------------------
// Limited Deferrable Server: the paper's Java implementation semantics.
//
// The server's run method is delegated to a handler bound to a wakeUp
// event: it only re-evaluates its queue when woken — by an arrival, by the
// periodic replenishment timer, or after finishing (or interrupting) a
// service. Handlers are admitted on declared cost; the paper's
// budget-extension rule applies: if the service would cross the next
// replenishment, the granted budget is the remaining capacity plus a full
// fresh capacity. Capacity is recovered in full at every period boundary.
//
// The wake-driven evaluation matters: a budget-extension window that opens
// between wakeups (because time passed, not because anything fired) is
// missed, exactly as in the paper's implementation.

type dsLimited struct {
	nm       string
	prio     int
	cs       rtime.Duration
	ts       rtime.Duration
	rem      rtime.Duration
	nextRepl rtime.Time
	cur      *Job
	budget   rtime.Duration
	queue    fifoQueue
	woken    bool
}

func (s *dsLimited) reset(spec ServerSpec) {
	*s = dsLimited{nm: spec.name(), prio: spec.Priority, cs: spec.Capacity, ts: spec.Period, queue: s.queue.reuse()}
}

func (s *dsLimited) name() string  { return s.nm }
func (s *dsLimited) priority() int { return s.prio }

func (s *dsLimited) arrive(now rtime.Time, j *Job) {
	s.queue.attribute(s.nm, j)
	s.queue.push(j)
	s.woken = true // the arrival fires wakeUp
}

// grantedBudget applies the Section 4.2 admission: a handler fits the
// plain remaining capacity, or — when its service would cross the next
// replenishment — the remaining capacity plus one full capacity (the
// upcoming refill is borrowed).
func (s *dsLimited) grantedBudget(now rtime.Time, j *Job) rtime.Duration {
	if j.Declared <= s.rem {
		return s.rem
	}
	if now.Add(j.Declared) > s.nextRepl {
		// Paper, Section 4.2: "the time budget associated with the event
		// is equal to the remaining capacity plus the total capacity".
		return s.rem + s.cs
	}
	return s.rem
}

func (s *dsLimited) tick(now rtime.Time, tr *trace.Trace) {
	// The periodic timer fires wakeUp only when the server is not running.
	if s.cur == nil && now >= s.nextRepl {
		s.woken = true
	}
	if s.cur == nil && s.woken {
		// The server loop recovers its capacity as part of processing the
		// wakeUp: boundaries crossed while it was busy are applied now,
		// never mid-service.
		for now >= s.nextRepl {
			s.rem = s.cs
			if tr != nil {
				tr.Mark(s.nm, now, trace.Replenish, "")
			}
			s.nextRepl = s.nextRepl.Add(s.ts)
		}
		j := s.queue.firstFitting(func(j *Job) rtime.Duration { return s.grantedBudget(now, j) })
		if j != nil {
			s.cur = j
			s.budget = s.grantedBudget(now, j)
			if s.budget > s.rem {
				// Budget extension: borrow the refill at the crossed
				// boundary so it is not granted a second time.
				s.rem += s.cs
				s.nextRepl = s.nextRepl.Add(s.ts)
			}
		} else {
			s.woken = false // back to sleep until the next wakeUp
		}
	}
}

func (s *dsLimited) pick(now rtime.Time) (*Job, rtime.Duration) {
	if s.cur == nil {
		return nil, 0
	}
	return s.cur, s.budget
}

func (s *dsLimited) nextEvent(now rtime.Time) rtime.Time {
	if s.cur != nil {
		// No capacity recovery happens while serving; the next internal
		// event is the service end, already bounded by the budget slice.
		return rtime.Never
	}
	return s.nextRepl
}

func (s *dsLimited) consumed(now rtime.Time, j *Job, delta rtime.Duration, tr *trace.Trace) {
	if j != s.cur {
		panic("sim: DS-lim consumed for a job it is not serving")
	}
	s.budget -= delta
	s.rem -= delta
	if s.budget == 0 && j.Remaining > 0 {
		j.Aborted = true
		j.AbortAt = now
		s.queue.remove(j)
		s.cur = nil
		s.woken = true // the server loop re-evaluates after an interruption
	}
}

func (s *dsLimited) completed(now rtime.Time, j *Job) {
	if j != s.cur {
		panic("sim: DS-lim completed a job it is not serving")
	}
	if !s.queue.remove(j) {
		panic("sim: DS-lim completed job not queued")
	}
	s.cur = nil
	s.woken = true // the server loop re-evaluates after a completion
}

// ---------------------------------------------------------------------------
// Sporadic Server (Sprunt, Sha, Lehoczky 1989), simplified for a
// highest-priority server: the capacity consumed during a serving burst is
// replenished one server period after the burst started. Service is
// resumable (this is an ideal policy, used as an extension baseline).

type ssRepl struct {
	at     rtime.Time
	amount rtime.Duration
}

type ss struct {
	nm        string
	prio      int
	cs        rtime.Duration
	ts        rtime.Duration
	rem       rtime.Duration
	queue     fifoQueue
	repls     []ssRepl
	inBurst   bool
	burstAt   rtime.Time
	burstUsed rtime.Duration
}

func (s *ss) reset(spec ServerSpec) {
	*s = ss{
		nm: spec.name(), prio: spec.Priority, cs: spec.Capacity, ts: spec.Period, rem: spec.Capacity,
		queue: s.queue.reuse(), repls: s.repls[:0],
	}
}

func (s *ss) name() string  { return s.nm }
func (s *ss) priority() int { return s.prio }

func (s *ss) arrive(now rtime.Time, j *Job) {
	s.queue.attribute(s.nm, j)
	s.queue.push(j)
}

func (s *ss) tick(now rtime.Time, tr *trace.Trace) {
	for len(s.repls) > 0 && now >= s.repls[0].at {
		s.rem += s.repls[0].amount
		if s.rem > s.cs {
			s.rem = s.cs
		}
		if tr != nil {
			tr.Mark(s.nm, s.repls[0].at, trace.Replenish, "")
		}
		// Shift rather than reslice, so the slice keeps its capacity
		// across runs.
		s.repls = s.repls[:copy(s.repls, s.repls[1:])]
	}
}

func (s *ss) pick(now rtime.Time) (*Job, rtime.Duration) {
	if s.rem <= 0 || s.queue.empty() {
		return nil, 0
	}
	return s.queue.head(), s.rem
}

func (s *ss) nextEvent(now rtime.Time) rtime.Time {
	if len(s.repls) == 0 {
		return rtime.Never
	}
	return s.repls[0].at
}

func (s *ss) closeBurst() {
	if s.inBurst && s.burstUsed > 0 {
		s.repls = append(s.repls, ssRepl{at: s.burstAt.Add(s.ts), amount: s.burstUsed})
	}
	s.inBurst = false
	s.burstUsed = 0
}

func (s *ss) consumed(now rtime.Time, j *Job, delta rtime.Duration, tr *trace.Trace) {
	if !s.inBurst {
		s.inBurst = true
		s.burstAt = now.Add(-delta)
		s.burstUsed = 0
	}
	s.burstUsed += delta
	s.rem -= delta
	if s.rem < 0 {
		panic("sim: sporadic server capacity went negative")
	}
	if s.rem == 0 {
		s.closeBurst()
	}
}

func (s *ss) completed(now rtime.Time, j *Job) {
	if !s.queue.remove(j) {
		panic("sim: SS completed job not queued")
	}
	if s.queue.empty() {
		s.closeBurst()
	}
}
