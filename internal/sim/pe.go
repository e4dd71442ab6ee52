package sim

import (
	"slices"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// exchangeObserver is implemented by servers that need to watch the rest of
// the schedule (the Priority Exchange server trades its capacity against
// the CPU time of lower-priority periodic tasks).
type exchangeObserver interface {
	observeRun(now rtime.Time, prio int, delta rtime.Duration)
	observeIdle(now rtime.Time, delta rtime.Duration)
}

// acctLevel is one per-priority capacity account of the PE server.
type acctLevel struct {
	prio int
	cap  rtime.Duration
}

// peServer implements the Priority Exchange policy (Lehoczky, Sha &
// Strosnider 1987), the third server family the paper cites. The server is
// replenished at the highest priority every period; when no aperiodic work
// is pending, its capacity is not discarded (as a polling server's would
// be) but exchanged with the executing lower-priority periodic task:
// the capacity descends to that task's priority level and is preserved
// there. A later aperiodic arrival consumes preserved capacity at the
// highest level holding any, executing at that level's priority. Idle time
// drains the accounts (capacity cannot be preserved against idleness).
//
// The executed schedule during an exchange is unchanged — the highest-
// priority ready periodic task runs either way — so the engine only needs
// the bookkeeping hooks (observeRun / observeIdle); no job promotion is
// involved.
type peServer struct {
	nm       string
	topPrio  int
	cs       rtime.Duration
	ts       rtime.Duration
	nextRepl rtime.Time
	queue    fifoQueue
	accts    []acctLevel // sorted by prio descending; caps > 0
	serveAt  int         // account priority used by the slice being served
}

func (s *peServer) reset(spec ServerSpec) {
	*s = peServer{
		nm: spec.name(), topPrio: spec.Priority, cs: spec.Capacity, ts: spec.Period,
		queue: s.queue.reuse(), accts: s.accts[:0],
	}
}

func (s *peServer) name() string { return "PE" }

// priority reports the level the server would execute at now: the highest
// account with capacity (its top priority before any exchange).
func (s *peServer) priority() int {
	if len(s.accts) > 0 {
		return s.accts[0].prio
	}
	return s.topPrio
}

func (s *peServer) arrive(now rtime.Time, j *Job) {
	s.queue.attribute(s.nm, j)
	s.queue.push(j)
}

func (s *peServer) credit(prio int, amount rtime.Duration) {
	if amount <= 0 {
		return
	}
	for i := range s.accts {
		if s.accts[i].prio == prio {
			s.accts[i].cap += amount
			return
		}
	}
	// Account priorities are distinct, so inserting at the first lower
	// level keeps the descending order a sort would produce.
	i := 0
	for i < len(s.accts) && s.accts[i].prio > prio {
		i++
	}
	s.accts = slices.Insert(s.accts, i, acctLevel{prio: prio, cap: amount})
}

// drainTop removes up to delta from the highest account at or above
// floorPrio (exclusive), returning how much was drained and from which
// level.
func (s *peServer) drainAbove(floorPrio int, delta rtime.Duration) (rtime.Duration, int) {
	for i := range s.accts {
		if s.accts[i].prio <= floorPrio {
			break
		}
		m := rtime.MinDur(s.accts[i].cap, delta)
		s.accts[i].cap -= m
		prio := s.accts[i].prio
		if s.accts[i].cap == 0 {
			s.accts = append(s.accts[:i], s.accts[i+1:]...)
		}
		return m, prio
	}
	return 0, 0
}

func (s *peServer) tick(now rtime.Time, tr *trace.Trace) {
	for now >= s.nextRepl {
		// Replenish at the top priority. Any capacity still sitting at the
		// top level is superseded by the fresh budget.
		s.setTop(s.cs)
		if tr != nil {
			tr.Mark(s.nm, s.nextRepl, trace.Replenish, "")
		}
		s.nextRepl = s.nextRepl.Add(s.ts)
	}
}

func (s *peServer) setTop(c rtime.Duration) {
	for i := range s.accts {
		if s.accts[i].prio == s.topPrio {
			s.accts[i].cap = c
			return
		}
	}
	s.credit(s.topPrio, c)
}

func (s *peServer) pick(now rtime.Time) (*Job, rtime.Duration) {
	if s.queue.empty() || len(s.accts) == 0 {
		return nil, 0
	}
	s.serveAt = s.accts[0].prio
	return s.queue.head(), s.accts[0].cap
}

func (s *peServer) nextEvent(now rtime.Time) rtime.Time { return s.nextRepl }

func (s *peServer) consumed(now rtime.Time, j *Job, delta rtime.Duration, tr *trace.Trace) {
	// Aperiodic service consumes the account the slice started on.
	drained, _ := s.drainAbove(s.serveAt-1, delta)
	if drained != delta {
		panic("sim: PE served beyond its account")
	}
}

func (s *peServer) completed(now rtime.Time, j *Job) {
	if !s.queue.remove(j) {
		panic("sim: PE completed job not queued")
	}
}

// observeRun exchanges capacity held above the running task's priority for
// that task's execution time: the capacity descends to the task's level.
func (s *peServer) observeRun(now rtime.Time, prio int, delta rtime.Duration) {
	for delta > 0 {
		m, _ := s.drainAbove(prio, delta)
		if m == 0 {
			return
		}
		s.credit(prio, m)
		delta -= m
	}
}

// observeIdle drains preserved capacity: nothing executes, so the server
// "runs" its budget against emptiness and loses it.
func (s *peServer) observeIdle(now rtime.Time, delta rtime.Duration) {
	for delta > 0 && len(s.accts) > 0 {
		m, _ := s.drainAbove(minInt, delta)
		if m == 0 {
			return
		}
		delta -= m
	}
}

const minInt = -int(^uint(0)>>1) - 1
