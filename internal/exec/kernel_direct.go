package exec

import (
	"fmt"

	"rtsj/internal/rtime"
)

// This file is the executive's kernel: the scheduling loop and the
// goroutine handoff protocol.
//
// Handoff protocol. At any instant exactly one goroutine owns the virtual
// CPU (the "token"): either the Run goroutine or one thread goroutine. The
// token owner runs the scheduling loop (dispatch) inline. When the loop
// picks the owner's own thread, dispatch simply returns — consecutive
// same-thread Consume/advance/sleep steps therefore never leave the
// goroutine (batching; zero futex operations). Only when a *different*
// thread must run does the owner wake that thread's condition variable and
// park on its own: one parked-goroutine handoff per real context switch.
//
// All park/wake flags live under ex.mu; the mutex handoff also publishes
// every kernel-state write of the old owner to the new one (the race
// detector sees the happens-before edge through ex.mu). Kernel state itself
// needs no lock: only the token owner touches it.
//
// Determinism contract. Each pass of dispatch fires the due timers in
// (instant, seq) order, assigns ready threads to the virtual CPUs
// (per-domain top-K by priority, FIFO within a priority by wake order; see
// smp.go), lets zero-step occupants run in ascending CPU index order,
// advances consume slices on every occupied CPU in lockstep to the next
// timer or the horizon, and drains zero-CPU threads at the horizon. Every
// decision depends only on virtual time and the executive's sequence
// counter, never on goroutine timing, so the schedule — segments,
// timestamps, events — is the same in goroutine-per-thread and pooled mode
// and from run to run. The ready queues and the timer queue are binary
// heaps (heap.go); with one CPU the assignment degenerates to "the heap
// top runs".

// run is the goroutine wrapper around a thread body in
// goroutine-per-thread mode: it parks until the thread is first scheduled.
func (th *Thread) run() {
	if th.park() {
		th.finish(nil)
		return
	}
	th.runBody()
}

// runBody executes the body with the executive's panic discipline and
// finishes the thread — or, for an activation entity that completed
// normally, ends the activation instead. Pool workers and per-activation
// goroutines call it directly: they receive a body only once the
// scheduler has picked its thread, so there is no initial park.
func (th *Thread) runBody() {
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, isKill := r.(killSentinel); !isKill {
					err = fmt.Errorf("exec: thread %s panicked: %v", th.name, r)
				}
			}
		}()
		th.callBody()
	}()
	if th.periodic && err == nil && !th.ex.shutdown {
		th.endActivation()
		return
	}
	th.finish(err)
}

// endActivation ends one activation: the body just returned, so detach it
// (this goroutine leaves, but the thread lives on to its next release),
// rearm the release bookkeeping and keep scheduling until the token is
// handed off — the activation analogue of finish.
func (th *Thread) endActivation() {
	ex := th.ex
	th.detached = true
	ex.rearm(th)
	if ex.pooled {
		// Declare this worker free (or retire it) before the token is
		// handed on, exactly as finish does for a terminating body.
		ex.bodyFinished(th)
	}
	ex.dispatch(th)
}

// finish terminates the thread: during a run it marks the thread done and
// keeps scheduling in this goroutine until the token is handed off; during
// shutdown it only reports the death to the reaper.
func (th *Thread) finish(err error) {
	ex := th.ex
	if ex.shutdown {
		ex.mu.Lock()
		th.state = stateDone
		if err != nil {
			th.err = err
			ex.errs = append(ex.errs, err)
		}
		ex.reap.Broadcast()
		ex.mu.Unlock()
		return
	}
	th.state = stateDone
	ex.readyRemove(th)
	if err != nil {
		th.err = err
		ex.errs = append(ex.errs, err)
	}
	if ex.pooled {
		// Declare this worker free (or retire it) before the token is
		// handed on, so a successor thread starting right away reuses it
		// instead of growing the pool.
		ex.bodyFinished(th)
	}
	ex.dispatch(th)
}

// reschedule runs the scheduling loop inline after the calling thread
// changed its own kernel state (consume, sleep or wait). It returns once
// the thread is picked to run user code again — possibly without ever
// parking — and unwinds the body if the executive is shutting down.
func (tc *TC) reschedule() {
	if tc.th.ex.dispatch(tc.th) {
		panic(killSentinel{})
	}
}

// park blocks the calling thread goroutine until it is scheduled or
// killed, and reports whether it was killed.
func (th *Thread) park() (killed bool) {
	ex := th.ex
	ex.mu.Lock()
	for !th.scheduled && !th.killed {
		th.cond.Wait()
	}
	th.scheduled = false
	killed = th.killed
	ex.mu.Unlock()
	return killed
}

// wake marks th scheduled and signals its goroutine.
func (ex *Exec) wake(th *Thread) {
	ex.mu.Lock()
	th.scheduled = true
	th.cond.Signal()
	ex.mu.Unlock()
}

// parkMain blocks the Run goroutine until a thread ends the run.
func (ex *Exec) parkMain() {
	ex.mu.Lock()
	for !ex.mainOn {
		ex.main.Wait()
	}
	ex.mainOn = false
	ex.mu.Unlock()
}

// wakeMain hands the token back to the Run goroutine.
func (ex *Exec) wakeMain() {
	ex.mu.Lock()
	ex.mainOn = true
	ex.main.Signal()
	ex.mu.Unlock()
}

// handoff transfers the token from cur (nil for the Run goroutine) to next
// and parks cur. A terminated or detached cur hands off without parking:
// its goroutine is about to exit (or return to the pool). A thread whose
// body has not started — a pooled thread before its first dispatch, or an
// activation entity at a release — is handed to a pool worker (or a fresh
// per-activation goroutine outside pooled mode) instead of woken: it has
// no goroutine parked yet. It reports whether cur was killed while parked.
func (ex *Exec) handoff(cur, next *Thread) (killed bool) {
	ex.stats.ContextSwitches.Inc()
	// Read our own state while we still hold the token: the instant next
	// is woken (or handed to a pool worker) it may run kernel code that
	// writes thread states concurrently with this goroutine's epilogue.
	// (next may be cur itself — a detached activation re-released at the
	// current instant — so capture before startThread clears the flag.)
	curDone := cur != nil && (cur.state == stateDone || cur.detached)
	if !next.started {
		next.started = true
		next.detached = false
		if ex.pooled {
			ex.startThread(next)
		} else {
			go next.runBody()
		}
	} else {
		ex.wake(next)
	}
	if cur == nil {
		ex.parkMain()
		return false
	}
	if curDone {
		return false
	}
	return cur.park()
}

// fireDueTimers pops and runs every timer due at or before now in
// (instant, seq) order. Timers armed by a fired fn are clamped to >= now
// and carry a larger seq, so they run later in the same pass.
func (ex *Exec) fireDueTimers() {
	for {
		// peekTimer re-checks liveness before every pop, so a timer
		// cancelled by an earlier fn due at the same instant never fires,
		// although it was already due when the pass began.
		k, ok := ex.peekTimer()
		if !ok || k.at > ex.now {
			return
		}
		ex.theap.pop()
		ex.fire(k.node)
		ex.freeTimer(k.node)
	}
}

// pickReadyZeroCPU returns the highest-priority ready thread across every
// scheduling domain that is not mid-consume (horizon drain — time is
// frozen at the horizon instant, so the drain serializes zero-time
// completions globally).
func (ex *Exec) pickReadyZeroCPU() *Thread {
	var best *Thread
	for d := range ex.readyQ {
		th := ex.pickReadyZeroCPUDomain(d)
		if th != nil && (best == nil || higherRank(th, best)) {
			best = th
		}
	}
	return best
}

// Run advances virtual time until the horizon, or until the system
// quiesces (no ready thread and no pending timer). It returns the first
// thread body error, if any. Run seeds the scheduling loop in its own
// goroutine; the loop then migrates between goroutines with the token, and
// the Run goroutine parks until the horizon, quiescence or a livelock ends
// the run.
func (ex *Exec) Run(until rtime.Time) error {
	if ex.running {
		return fmt.Errorf("exec: Run called re-entrantly")
	}
	ex.running = true
	defer func() { ex.running = false }()
	ex.until = until
	ex.phase = phaseRunning
	ex.zeroSteps = 0
	ex.lastNow = ex.now
	ex.runErr = nil
	ex.dispatch(nil)
	ex.phase = phaseIdle
	if ex.runErr != nil {
		return ex.runErr
	}
	if len(ex.errs) > 0 {
		return ex.errs[0]
	}
	return nil
}

// dispatch runs the scheduling loop inline in the calling goroutine (cur's
// goroutine; cur == nil for the Run goroutine). It returns when cur's own
// thread is picked to run user code, or — after handing the token off —
// when cur is woken again. It reports whether cur was killed meanwhile.
func (ex *Exec) dispatch(cur *Thread) (killed bool) {
	for {
		switch ex.phase {
		case phaseRunning:
			if ex.now >= ex.until {
				if ex.now > ex.until {
					ex.now = ex.until
				}
				ex.drainSteps = 0
				ex.phase = phaseDraining
				continue
			}
			ex.fireDueTimers()
			if ex.assignCPUs() == 0 {
				k, ok := ex.peekTimer()
				if !ok {
					ex.phase = phaseDone // quiescent: nothing will ever happen again
					continue
				}
				ex.now = rtime.Min(k.at, ex.until)
				continue
			}
			th := ex.zeroStepOccupant()
			if th == nil {
				ex.runSlices(ex.until)
				continue
			}
			// Zero-time step: let th execute Go code to its next kernel call.
			if ex.now == ex.lastNow {
				ex.zeroSteps++
				if ex.zeroSteps > 1_000_000 {
					ex.runErr = fmt.Errorf("exec: livelock at %v: thread %s loops without consuming",
						ex.now, th.name)
					ex.phase = phaseDone
					continue
				}
			} else {
				ex.zeroSteps = 0
				ex.lastNow = ex.now
			}
			if debugChecks {
				ex.checkReadyHeap()
			}
			if th == cur && !cur.detached {
				return false // batched continuation: no handoff
			}
			// A detached cur re-picked at the same instant is NOT a
			// continuation: its body already returned, so the next
			// activation needs a fresh dispatch via handoff.
			return ex.handoff(cur, th)
		case phaseDraining:
			// Zero-time work pending at the horizon instant: a consume that
			// finished exactly at the horizon must still return to its
			// thread so completion bookkeeping (e.g. a server marking a
			// handler served) is observable — the discrete-event simulator
			// records such completions, and the two engines must agree at
			// the boundary.
			th := ex.pickReadyZeroCPU()
			if th == nil || ex.drainSteps >= 1_000_000 {
				ex.phase = phaseDone
				continue
			}
			ex.drainSteps++
			if th == cur && !cur.detached {
				return false
			}
			return ex.handoff(cur, th)
		case phaseDone:
			if cur == nil {
				return false // Run goroutine: Run returns
			}
			// Read before the token moves; a detached cur must not park —
			// its goroutine is leaving while the thread sleeps on.
			curDone := cur.state == stateDone || cur.detached
			ex.wakeMain()
			if curDone {
				return false // goroutine exits via finish
			}
			return cur.park() // resumes in a later Run (or unwinds on kill)
		default:
			panic("exec: kernel call outside Run")
		}
	}
}

// Shutdown unwinds every live thread goroutine. Call after Run to avoid
// goroutine leaks when many executives are created (e.g. in benchmarks).
// Each parked thread is killed and the reaper waits for its death before
// moving on, so Shutdown returns with every goroutine gone.
func (ex *Exec) Shutdown() {
	ex.shutdown = true
	for _, th := range ex.threads {
		if th.state == stateDone {
			continue
		}
		if !th.started {
			// No body in progress, so there is no goroutine to unwind: a
			// pooled thread never dispatched, or an activation entity
			// between releases.
			th.state = stateDone
			continue
		}
		ex.mu.Lock()
		th.killed = true
		th.cond.Signal()
		for th.state != stateDone {
			ex.reap.Wait()
		}
		ex.mu.Unlock()
	}
	if ex.pooled {
		ex.pool.close()
	}
}
