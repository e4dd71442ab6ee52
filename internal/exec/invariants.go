package exec

import (
	"fmt"
	"strings"
)

// CheckInvariants audits the executive's internal consistency: per-thread
// accounting (consumed CPU, miss and abort counts never negative),
// priority-inheritance sanity (a thread's boost never drops below its base
// priority, and collapses back to it once the thread holds no locks), and
// the ready-heap bookkeeping (heap indices consistent, done
// threads evicted). It is meant to be called after (or between) runs —
// from the overload scenario family, the differential-test net and the
// fault-plan fuzz run — and returns one error listing every violation, or
// nil. Calling it mid-run from a kernel timer function is also safe: the
// caller runs under the scheduling token, which owns all audited state.
func (ex *Exec) CheckInvariants() error {
	var probs []string
	note := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}
	for _, th := range ex.threads {
		if th.consumed < 0 {
			note("thread %s: negative consumed %v", th.name, th.consumed)
		}
		if th.needCPU < 0 {
			note("thread %s: negative pending consume %v", th.name, th.needCPU)
		}
		if th.missed < 0 || th.aborted < 0 {
			note("thread %s: negative miss/abort counts %d/%d", th.name, th.missed, th.aborted)
		}
		if th.aborted > 0 && th.missPolicy != MissAbort {
			note("thread %s: aborted activations under policy %v", th.name, th.missPolicy)
		}
		if th.boost < th.prio {
			note("thread %s: boost %d below base priority %d", th.name, th.boost, th.prio)
		}
		if len(th.held) == 0 && th.boost != th.prio {
			note("thread %s: boost %d with no held locks (base %d)", th.name, th.boost, th.prio)
		}
		if th.waitingOn != nil && th.state != stateBlocked && th.state != stateDone {
			note("thread %s: waiting on %s but in state %d", th.name, th.waitingOn.name, th.state)
		}
		if th.state == stateDone && th.heapIdx >= 0 {
			note("thread %s: done but still in the ready heap", th.name)
		}
		if th.heapIdx >= 0 && th.state != stateReady {
			note("thread %s: in the ready heap in state %d", th.name, th.state)
		}
	}
	for i, th := range ex.readyQ.a {
		if th.heapIdx != i {
			note("ready heap: slot %d holds %s with heapIdx %d", i, th.name, th.heapIdx)
		}
	}
	for c, th := range ex.cpuRun {
		if th != nil && th.lastCPU != c {
			note("cpu %d: occupant %s has lastCPU %d", c, th.name, th.lastCPU)
		}
	}
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("exec: %d invariant violation(s):\n  %s",
		len(probs), strings.Join(probs, "\n  "))
}
