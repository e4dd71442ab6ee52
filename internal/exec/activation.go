package exec

import (
	"fmt"

	"rtsj/internal/rtime"
)

// This file is the activation-driven periodic dispatch path, shared by both
// kernels.
//
// A thread spawned with SpawnPeriodic has no long-lived body goroutine:
// instead of a loop that parks on "work; WaitForNextPeriod()", the kernel
// dispatches the body once per release — on a pool worker in pooled mode
// (Options.MaxGoroutines > 0), or on a short-lived goroutine otherwise —
// and the body RETURNING is the release boundary. The kernel then rearms
// the entity: it advances the release instant by one period, skips (and
// counts, see Thread.MissedActivations) any releases the body overran
// past, and applies exactly the sleep request a per-thread loop's
// WaitForNextPeriod would have issued at the same point in the schedule.
//
// Because the rearm reproduces the loop's kernel-call sequence verbatim —
// same requests, same timer registrations, same sequence numbers — an
// activation entity is trace-for-trace identical to the equivalent looping
// thread on every executive configuration (pinned by TestActivationDiff*).
// What changes is the resource cost: between releases the entity owns no
// goroutine at all, so a system of tens of thousands of periodic entities
// holds its goroutine count at the pool size instead of one per entity.

// ActivationSpec describes an activation-driven periodic entity for
// SpawnPeriodic: first release at Start (clamped to now), then one body
// dispatch every Period.
type ActivationSpec struct {
	// Start is the first release instant. A Start at or before the current
	// virtual time releases the entity immediately.
	Start rtime.Time
	// Period is the release period; it must be positive.
	Period rtime.Duration
	// Miss selects the overrun policy (default MissSkip).
	Miss MissPolicy
	// Priority, when non-nil, computes the entity's base priority for each
	// release from the release instant (called in kernel context at spawn
	// and at every rearm, overriding the prio argument): the job-level
	// fixed-priority hook that EDF scheduling builds on — return the
	// negated absolute deadline and earliest-deadline jobs rank highest.
	// A looping thread gets the same effect by calling TC.SetPriority at
	// the same point in its loop (after advancing its release, before the
	// sleep), which keeps the two formulations schedule-identical.
	Priority func(release rtime.Time) int
}

// SpawnPeriodic creates an activation-driven periodic entity: body runs
// once per release, on a pool worker (Options.MaxGoroutines > 0) or a
// per-activation goroutine otherwise, and returning from body ends the
// activation — the kernel rearms the entity for its next release,
// skipping (and counting) releases the body overran past. The schedule is
// identical to a Spawn'ed thread looping "body; sleep-until-next-release",
// but the entity pins no goroutine between releases.
//
// A body that panics terminates the entity (no further releases), exactly
// as a panic would unwind a per-thread periodic loop.
func (ex *Exec) SpawnPeriodic(name string, prio int, spec ActivationSpec, body func(tc *TC)) *Thread {
	return ex.SpawnPeriodicOn(name, prio, -1, spec, body)
}

// SpawnPeriodicOn creates an activation-driven periodic entity like
// SpawnPeriodic with an explicit CPU affinity (a CPU index, or -1 for
// none — see SpawnOn for the affinity contract).
func (ex *Exec) SpawnPeriodicOn(name string, prio, cpu int, spec ActivationSpec, body func(tc *TC)) *Thread {
	if spec.Period <= 0 {
		panic(fmt.Sprintf("exec: SpawnPeriodic %s needs a positive period (got %v)", name, spec.Period))
	}
	th := ex.newThread(name, prio, cpu, body)
	th.periodic = true
	th.period = spec.Period
	th.missPolicy = spec.Miss
	th.dynPrio = spec.Priority
	startAt := spec.Start
	if startAt < ex.now {
		startAt = ex.now
	}
	th.nextRel = startAt
	if th.dynPrio != nil {
		th.prio = th.dynPrio(startAt)
		th.boost = th.prio
	}
	// Unlike Spawn, no goroutine is created even outside pooled mode: the
	// body is dispatched lazily at each release (handoff on the direct
	// kernel, resume on the channel kernel).
	ex.scheduleFirstRelease(th, startAt)
	return th
}

// Periodic reports whether the thread is an activation-driven periodic
// entity (created with SpawnPeriodic).
func (th *Thread) Periodic() bool { return th.periodic }

// CurrentRelease returns the entity's current release instant: while a body
// runs, the release that activated it; between activations, the next
// pending release. It is meaningful only for SpawnPeriodic threads.
func (th *Thread) CurrentRelease() rtime.Time { return th.nextRel }

// MissedActivations returns how many releases the entity has skipped
// because a body overran past them (the skip-and-count overrun semantics
// of the RTSJ's WaitForNextPeriod without a miss handler), or — under
// MissContinueLate — how many releases happened late.
func (th *Thread) MissedActivations() int { return th.missed }

// AbortedActivations returns how many activations the MissAbort policy cut
// short at their deadline. Always 0 under other policies.
func (th *Thread) AbortedActivations() int { return th.aborted }

// Miss returns the entity's overrun policy.
func (th *Thread) Miss() MissPolicy { return th.missPolicy }

// rearm ends an activation in kernel context: it advances th's release by
// one period, handles releases the body overran past according to the miss
// policy (MissSkip skips and counts them; MissContinueLate keeps the first
// past-due release, counting it late), and applies the same sleep request
// a per-thread loop's WaitForNextPeriod would issue here — so timer
// sequence numbers, ready-queue ranks and therefore whole schedules match
// the loop formulation exactly (a past-due sleep re-queues the thread
// immediately and deterministically; see apply). It also detaches the body
// (started=false) so the next release dispatches a fresh one.
func (ex *Exec) rearm(th *Thread) {
	th.started = false
	th.nextRel = th.nextRel.Add(th.period)
	if th.missPolicy == MissContinueLate {
		if th.nextRel < ex.now {
			th.missed++
			ex.stats.Misses.Inc()
		}
	} else {
		for th.nextRel < ex.now {
			th.nextRel = th.nextRel.Add(th.period)
			th.missed++
			ex.stats.Misses.Inc()
		}
	}
	if th.dynPrio != nil {
		// Rebase the priority for the next release before the sleep, the
		// same point a looping thread would call TC.SetPriority.
		ex.setBasePrio(th, th.dynPrio(th.nextRel))
	}
	ex.apply(request{th: th, kind: reqSleep, until: th.nextRel})
}

// callBody runs one dispatch of the thread body, applying the entity's
// miss policy. Under MissAbort the body runs inside a budgeted section
// spanning the activation's implicit deadline (release + period): a body
// still consuming at the deadline unwinds there, the abort is counted, and
// the entity rearms for the release falling at that very instant. Every
// other configuration dispatches the body directly.
func (th *Thread) callBody() {
	if th.periodic {
		th.ex.stats.Dispatches.Inc()
	}
	tc := &th.tc
	if th.periodic && th.missPolicy == MissAbort {
		if tc.WithBudget(th.nextRel.Add(th.period).Sub(th.ex.now), func() { th.body(tc) }) {
			th.aborted++
		}
		return
	}
	th.body(tc)
}
