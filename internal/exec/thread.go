package exec

import (
	"fmt"

	"rtsj/internal/rtime"
)

// TC is the thread context handed to a thread body. All methods must be
// called from that thread's body only; the executive serializes thread
// execution, so no further synchronization is needed.
type TC struct {
	th *Thread
}

// Exec returns the owning executive.
func (tc *TC) Exec() *Exec { return tc.th.ex }

// Thread returns the underlying thread.
func (tc *TC) Thread() *Thread { return tc.th }

// Now returns the current virtual time.
func (tc *TC) Now() rtime.Time { return tc.th.ex.now }

// SetLabel sets the label attached to subsequent trace segments, e.g. the
// name of the handler a server thread is currently serving.
func (tc *TC) SetLabel(label string) { tc.th.label = label }

// Consume models d units of CPU demand. The thread may be preempted and
// resumed arbitrarily; Consume returns once the full demand was scheduled.
// Inside a WithBudget section, Consume is the interruption point: if the
// budget expires mid-consume, the section unwinds (the Go analogue of
// RTSJ's AsynchronouslyInterruptedException).
func (tc *TC) Consume(d rtime.Duration) {
	th := tc.th
	if d < 0 {
		panic(fmt.Sprintf("exec: negative consume %v", d))
	}
	if th.inBudget && th.pendingIntr && !th.intrDelivered {
		// The budget expired between consumes; fire on entry.
		panic(aieSentinel{})
	}
	if d == 0 {
		return
	}
	th.needCPU = d
	tc.reschedule()
	if th.intrDelivered {
		th.intrDelivered = false
		panic(aieSentinel{})
	}
}

// SleepUntil suspends the thread until instant t (no-op if t is not in the
// future).
func (tc *TC) SleepUntil(t rtime.Time) {
	tc.th.ex.sleepUntil(tc.th, t)
	tc.reschedule()
}

// Sleep suspends the thread for duration d.
func (tc *TC) Sleep(d rtime.Duration) { tc.SleepUntil(tc.Now().Add(d)) }

// Wait blocks the thread on q until another thread notifies it.
func (tc *TC) Wait(q *WaitQueue) {
	tc.th.ex.block(tc.th, q)
	tc.reschedule()
}

// NotifyOne wakes the longest-waiting thread on q, if any.
func (tc *TC) NotifyOne(q *WaitQueue) { tc.th.ex.NotifyOne(q) }

// NotifyAll wakes every thread waiting on q.
func (tc *TC) NotifyAll(q *WaitQueue) { tc.th.ex.NotifyAll(q) }

// NotifyOne wakes the longest-waiting thread on q. Callable from kernel
// timer functions and setup code as well as (via TC) thread bodies.
func (ex *Exec) NotifyOne(q *WaitQueue) {
	if len(q.waiters) == 0 {
		return
	}
	th := q.waiters[0]
	q.waiters = q.waiters[1:]
	ex.makeReady(th)
}

// NotifyAll wakes every thread waiting on q.
func (ex *Exec) NotifyAll(q *WaitQueue) {
	for _, th := range q.waiters {
		ex.makeReady(th)
	}
	q.waiters = q.waiters[:0]
}

// WithBudget runs fn under a virtual-time budget, the analogue of RTSJ's
// Timed.doInterruptible: if fn does not complete within the budget, its
// current (or next) Consume unwinds and WithBudget returns true. The
// elapsed accounting is the caller's responsibility (use Now before/after).
//
// A zero or negative budget means the section has no time at all: the
// interrupt is pending from the start and fires at fn's first Consume,
// which unwinds before any CPU is consumed. (A section that never consumes
// still completes — Consume is the only interruption point.) This is
// pinned deterministically rather than depending on timer/ready ordering
// at the current instant.
func (tc *TC) WithBudget(budget rtime.Duration, fn func()) (interrupted bool) {
	th := tc.th
	if th.inBudget {
		panic("exec: nested WithBudget sections are not supported")
	}
	ex := th.ex
	th.inBudget = true
	th.pendingIntr = false
	th.intrDelivered = false
	var expiry Timer
	if budget <= 0 {
		// An expired-on-entry budget needs no timer: mark the interrupt
		// pending so the first Consume unwinds immediately, independent
		// of how same-instant timers interleave with the ready queue.
		th.pendingIntr = true
	} else {
		expiry = ex.arm(ex.now.Add(budget), evBudget, th, nil)
	}
	defer func() {
		expiry.Cancel()
		th.inBudget = false
		th.pendingIntr = false
		th.intrDelivered = false
		if r := recover(); r != nil {
			if _, ok := r.(aieSentinel); ok {
				interrupted = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}
