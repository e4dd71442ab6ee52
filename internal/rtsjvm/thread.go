package rtsjvm

import (
	"rtsj/internal/exec"
	"rtsj/internal/rtime"
)

// RealtimeThread mirrors javax.realtime.RealtimeThread: a fixed-priority
// thread, optionally with periodic release parameters. It is created in
// one of two emulation modes: the classic looping mode (NewRealtimeThread,
// the body parks in WaitForNextPeriod between releases) or activation mode
// (NewActivationThread, the body is dispatched once per release and owns
// no goroutine in between).
type RealtimeThread struct {
	vm         *VM
	name       string
	prio       int
	pp         *PeriodicParameters
	th         *exec.Thread
	activation bool
}

// RTC is the context passed to a realtime thread's body; it extends the
// executive's thread context with RTSJ-style periodic release handling.
type RTC struct {
	*exec.TC
	rt   *RealtimeThread
	next rtime.Time
	// Missed counts skipped activations (deadline-miss style overruns). In
	// looping mode it accumulates as WaitForNextPeriod skips releases; in
	// activation mode each body receives the entity's total skip count at
	// release time (exec.Thread.MissedActivations).
	Missed int
}

// NewRealtimeThread creates and starts a realtime thread. With periodic
// parameters the thread is released at pp.Start; otherwise it starts
// immediately. The body typically loops on WaitForNextPeriod.
func (vm *VM) NewRealtimeThread(name string, prio int, pp *PeriodicParameters, body func(*RTC)) *RealtimeThread {
	return vm.NewRealtimeThreadOn(name, prio, -1, pp, body)
}

// NewRealtimeThreadOn creates and starts a realtime thread like
// NewRealtimeThread with an explicit CPU affinity — the RTSJ-style
// processor-affinity surface over exec.SpawnOn. cpu is a virtual CPU index
// or -1 for no affinity; it is the static placement input of the
// Partitioned and Clustered migration policies (exec.Options.Migration)
// and is recorded but non-constraining under Global.
func (vm *VM) NewRealtimeThreadOn(name string, prio, cpu int, pp *PeriodicParameters, body func(*RTC)) *RealtimeThread {
	if pp != nil && pp.Miss == exec.MissAbort {
		panic("rtsjvm: the abort miss policy requires activation mode (NewActivationThread)")
	}
	rt := &RealtimeThread{vm: vm, name: name, prio: prio, pp: pp}
	start := vm.ex.Now()
	if pp != nil && pp.Start > start {
		start = pp.Start
	}
	first := start
	rt.th = vm.ex.SpawnOn(name, prio, start, cpu, func(tc *exec.TC) {
		body(&RTC{TC: tc, rt: rt, next: first})
	})
	return rt
}

// NewActivationThread creates a periodic realtime thread in activation
// mode: body runs once per release, dispatched by the executive's
// activation path (exec.SpawnPeriodic) on a pool worker, so the thread
// owns no goroutine between releases. Returning from body is the activation-mode
// WaitForNextPeriod: if the body overran past one or more releases, those
// activations are skipped and counted (RTC.Missed), exactly as the looping
// mode's WaitForNextPeriod would have — the two modes are
// schedule-identical (pinned by TestPeriodicModeDiffCorpus).
//
// pp must carry a positive Period. Calling WaitForNextPeriod inside an
// activation body panics: the release boundary is the body return.
func (vm *VM) NewActivationThread(name string, prio int, pp *PeriodicParameters, body func(*RTC)) *RealtimeThread {
	return vm.NewActivationThreadOn(name, prio, -1, pp, body)
}

// NewActivationThreadOn creates an activation-mode periodic thread like
// NewActivationThread with an explicit CPU affinity (a virtual CPU index,
// or -1 for none — see NewRealtimeThreadOn for the affinity contract).
func (vm *VM) NewActivationThreadOn(name string, prio, cpu int, pp *PeriodicParameters, body func(*RTC)) *RealtimeThread {
	if pp == nil || pp.Period <= 0 {
		panic("rtsjvm: NewActivationThread needs periodic parameters with a positive period")
	}
	rt := &RealtimeThread{vm: vm, name: name, prio: prio, pp: pp, activation: true}
	start := vm.ex.Now()
	if pp.Start > start {
		start = pp.Start
	}
	rt.th = vm.ex.SpawnPeriodicOn(name, prio, cpu,
		exec.ActivationSpec{Start: start, Period: pp.Period, Miss: pp.Miss},
		func(tc *exec.TC) {
			body(&RTC{
				TC:     tc,
				rt:     rt,
				next:   tc.Thread().CurrentRelease(),
				Missed: tc.Thread().MissedActivations(),
			})
		})
	return rt
}

// Activation reports whether the thread runs in activation mode
// (NewActivationThread) rather than the classic looping mode.
func (rt *RealtimeThread) Activation() bool { return rt.activation }

// Thread exposes the underlying executive thread.
func (rt *RealtimeThread) Thread() *exec.Thread { return rt.th }

// SchedulableName implements Schedulable.
func (rt *RealtimeThread) SchedulableName() string { return rt.name }

// SchedulablePriority implements Schedulable.
func (rt *RealtimeThread) SchedulablePriority() int { return rt.prio }

// SchedulableRelease implements Schedulable.
func (rt *RealtimeThread) SchedulableRelease() ReleaseParameters {
	if rt.pp == nil {
		return nil
	}
	return rt.pp
}

// WaitForNextPeriod suspends the thread until its next periodic release.
// If the thread overran past one or more releases, the periodic
// parameters' miss policy decides: under the default (exec.MissSkip) the
// overrun activations are skipped (the next release strictly after now is
// used) and the method returns false, mirroring the RTSJ's deadline-miss
// handling for the no-miss-handler configuration; under
// exec.MissContinueLate the next release is kept even though it is past
// due — the thread continues immediately, late, and the method returns
// false. Either way the kernel-call sequence matches the activation-mode
// rearm for the same policy, keeping the two emulation modes
// schedule-identical.
func (r *RTC) WaitForNextPeriod() bool {
	if r.rt.pp == nil || r.rt.pp.Period <= 0 {
		panic("rtsjvm: WaitForNextPeriod on a non-periodic thread")
	}
	if r.rt.activation {
		panic("rtsjvm: WaitForNextPeriod inside an activation-mode body (return from the body instead)")
	}
	r.next = r.next.Add(r.rt.pp.Period)
	onTime := true
	if r.rt.pp.Miss == exec.MissContinueLate {
		if r.next < r.Now() {
			r.Missed++
			onTime = false
		}
	} else {
		for r.next < r.Now() {
			r.next = r.next.Add(r.rt.pp.Period)
			r.Missed++
			onTime = false
		}
	}
	r.SleepUntil(r.next)
	return onTime
}

// CurrentRelease returns the activation instant of the current period.
func (r *RTC) CurrentRelease() rtime.Time { return r.next }
