package sim

import (
	"sort"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// slackStealer implements dynamic slack stealing (Lehoczky & Ramos-Thuel),
// the last of the server families the paper cites: aperiodic work runs at
// the *highest* priority for as long as doing so cannot make any periodic
// task miss a deadline.
//
// The available slack at time t is computed by lookahead: the largest delta
// such that inserting delta units of top-priority service at t leaves the
// simulated periodic-only schedule free of deadline misses. The lookahead
// window extends past the insertion-affected busy period; binary search
// over delta converges to 1us granularity. This is a conservative
// approximation of the exact (table-driven) slack-stealing algorithm —
// optimal slack stealing needs per-task slack functions, but the
// observable behaviour (immediate service while slack lasts, throttling
// near deadlines) is preserved.
type slackStealer struct {
	nm    string
	sys   System
	fp    *FP
	queue fifoQueue
}

// reset prepares the stealer for a run; FP.reset then binds the run's
// system and the dispatcher whose ready set the lookahead reads.
func (s *slackStealer) reset(spec ServerSpec) {
	*s = slackStealer{nm: spec.name(), queue: s.queue.reuse()}
}

func (s *slackStealer) name() string  { return "SLACK" }
func (s *slackStealer) priority() int { return int(^uint(0) >> 1) } // always top

func (s *slackStealer) arrive(now rtime.Time, j *Job) {
	s.queue.attribute(s.nm, j)
	s.queue.push(j)
}

func (s *slackStealer) tick(rtime.Time, *trace.Trace) {}

func (s *slackStealer) pick(now rtime.Time) (*Job, rtime.Duration) {
	if s.queue.empty() {
		return nil, 0
	}
	slack := s.availableSlack(now)
	if slack <= 0 {
		return nil, 0
	}
	return s.queue.head(), slack
}

func (s *slackStealer) nextEvent(rtime.Time) rtime.Time { return rtime.Never }

func (s *slackStealer) consumed(rtime.Time, *Job, rtime.Duration, *trace.Trace) {}

func (s *slackStealer) completed(now rtime.Time, j *Job) {
	if !s.queue.remove(j) {
		panic("sim: slack stealer completed job not queued")
	}
}

// laJob is a lookahead copy of a periodic job.
type laJob struct {
	rel  rtime.Time
	dl   rtime.Time
	rem  rtime.Duration
	prio int
	seq  int64
}

// availableSlack binary-searches the largest top-priority insertion at now
// that keeps every periodic deadline in the lookahead window.
func (s *slackStealer) availableSlack(now rtime.Time) rtime.Duration {
	maxT := rtime.Duration(0)
	for _, t := range s.sys.Periodics {
		maxT = rtime.MaxDur(maxT, t.Period)
		maxT = rtime.MaxDur(maxT, t.RelDeadline())
	}
	if maxT == 0 {
		return rtime.Duration(1) << 40 // no periodic tasks: infinite slack
	}
	// Upper bound on useful slack: the head's remaining plus queued work.
	var want rtime.Duration
	for _, j := range s.queue.q {
		want += j.Remaining
	}
	lo, hi := rtime.Duration(0), want
	if !s.feasibleWith(now, hi, maxT) {
		for lo+rtime.Microsecond < hi {
			mid := (lo + hi) / 2
			if s.feasibleWith(now, mid, maxT) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}
	return hi
}

// feasibleWith simulates the periodic-only FP schedule from the current
// state with delta units of top-priority stealing inserted at now, and
// reports whether every deadline inside the window holds.
func (s *slackStealer) feasibleWith(now rtime.Time, delta rtime.Duration, maxT rtime.Duration) bool {
	bound := now.Add(delta + 4*maxT)
	var jobs []laJob
	// Currently ready periodic jobs (the stealer never touches their state).
	for _, j := range s.fp.ready.a {
		jobs = append(jobs, laJob{rel: j.Release, dl: j.AbsDL, rem: j.Remaining, prio: j.Priority, seq: j.seq})
	}
	// Future releases within the window.
	seq := int64(1 << 40)
	for _, t := range s.sys.Periodics {
		rel := t.Offset
		if rel < now {
			k := rtime.DivCeil(now.Sub(t.Offset), t.Period)
			rel = t.Offset.Add(rtime.Duration(k) * t.Period)
			if rel == now {
				// A release exactly at now is already in the ready set.
				rel = rel.Add(t.Period)
			}
		}
		for ; rel < bound; rel = rel.Add(t.Period) {
			jobs = append(jobs, laJob{
				rel: rel, dl: rel.Add(t.RelDeadline()), rem: t.Cost, prio: t.Priority, seq: seq,
			})
			seq++
		}
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].rel != jobs[b].rel {
			return jobs[a].rel < jobs[b].rel
		}
		return jobs[a].seq < jobs[b].seq
	})

	// Event-driven FP forward simulation with the steal first.
	t := now
	steal := delta
	next := 0
	var ready []*laJob
	for {
		for next < len(jobs) && jobs[next].rel <= t {
			ready = append(ready, &jobs[next])
			next = next + 1
		}
		// Highest-priority pending work; the steal outranks everything.
		if steal > 0 {
			adv := steal
			if next < len(jobs) && jobs[next].rel.Sub(t) < adv {
				adv = jobs[next].rel.Sub(t)
			}
			t = t.Add(adv)
			steal -= adv
			continue
		}
		var run *laJob
		for _, j := range ready {
			if j.rem == 0 {
				continue
			}
			if run == nil || j.prio > run.prio || (j.prio == run.prio && j.seq < run.seq) {
				run = j
			}
		}
		if run == nil {
			if next >= len(jobs) {
				return true // drained: every checked deadline held
			}
			t = jobs[next].rel
			continue
		}
		adv := run.rem
		if next < len(jobs) && jobs[next].rel.Sub(t) < adv {
			adv = jobs[next].rel.Sub(t)
		}
		t = t.Add(adv)
		run.rem -= adv
		if run.rem == 0 && t > run.dl {
			return false
		}
		if t >= bound {
			return true
		}
	}
}
