package exec

import (
	"fmt"

	"rtsj/internal/rtime"
)

// This file is the activation-driven periodic dispatch path.
//
// A thread spawned with SpawnPeriodic has no long-lived body: instead of a
// loop that parks on "work; WaitForNextPeriod()", the kernel dispatches
// the body once per release on a free worker (pool.go), and the body
// RETURNING is the release boundary. The kernel then rearms
// the entity: it advances the release instant by one period, skips (and
// counts, see Thread.MissedActivations) any releases the body overran
// past, and puts the entity to sleep exactly as a per-thread loop's
// WaitForNextPeriod would have at the same point in the schedule.
//
// Because the rearm reproduces the loop's kernel-call sequence verbatim —
// same sleeps, same timer registrations, same sequence numbers — an
// activation entity is trace-for-trace identical to the equivalent looping
// thread on every executive configuration (pinned by TestActivationDiff*).
// What changes is the resource cost: between releases the entity owns no
// worker at all, so a system of tens of thousands of periodic entities
// holds its worker count at the peak number of releases in progress
// instead of one per entity.

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
}

// SpawnPeriodic creates an activation-driven periodic entity: body runs
// once per release on a free worker, and returning from body ends the
// activation — the kernel rearms the entity for its next release,
// skipping (and counting) releases the body overran past. The schedule is
// identical to a Spawn'ed thread looping "body; sleep-until-next-release",
// but the entity pins no worker between releases.
//
// A body that panics terminates the entity (no further releases), exactly
// as a panic would unwind a per-thread periodic loop.
func (ex *Exec) SpawnPeriodic(name string, prio int, spec ActivationSpec, body func(tc *TC)) *Thread {
	if spec.Period <= 0 {
		panic(fmt.Sprintf("exec: SpawnPeriodic %s needs a positive period (got %v)", name, spec.Period))
	}
	th := ex.newThread(name, prio, body)
	th.periodic = true
	th.period = spec.Period
	th.missPolicy = spec.Miss
	startAt := spec.Start
	if startAt < ex.now {
		startAt = ex.now
	}
	th.nextRel = startAt
	// As with Spawn, the body is bound to a worker lazily, here at each
	// release (see resume).
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
// past-due release, counting it late), and sleeps until the next release
// as a per-thread loop's WaitForNextPeriod would here — so timer sequence
// numbers, ready-queue ranks and therefore whole schedules match the loop
// formulation exactly (a past-due sleep re-queues the thread immediately
// and deterministically; see sleepUntil).
func (ex *Exec) rearm(th *Thread) {
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
	ex.sleepUntil(th, th.nextRel)
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
