package exec

import (
	"fmt"

	"rtsj/internal/rtime"
)

// This file is the DirectKernel: the channel-free executive.
//
// Handoff protocol. At any instant exactly one goroutine owns the virtual
// CPU (the "token"): either the Run goroutine or one thread goroutine. The
// token owner runs the scheduling loop (dispatch) inline. When the loop
// picks the owner's own thread, dispatch simply returns — consecutive
// same-thread Consume/advance/sleep steps therefore never leave the
// goroutine (batching; zero futex operations). Only when a *different*
// thread must run does the owner wake that thread's condition variable and
// park on its own: one parked-goroutine handoff per real context switch,
// instead of the channel kernel's two channel rendezvous per kernel call.
//
// All park/wake flags live under ex.mu; the mutex handoff also publishes
// every kernel-state write of the old owner to the new one (the race
// detector sees the happens-before edge through ex.mu). Kernel state itself
// needs no lock: only the token owner touches it.
//
// Determinism contract. dispatch reproduces the channel kernel's loop
// structure exactly — fire due timers, assign ready threads to the virtual
// CPUs (per-domain top-K by priority, FIFO within a priority by wake
// order; see smp.go), zero-step occupants in ascending CPU index order,
// advance consume slices on every occupied CPU in lockstep to the next
// timer or horizon, drain zero-CPU threads at the horizon — so both
// kernels produce identical schedules, timestamps and trace segments. The
// per-domain ready queues and the timer queue are binary heaps (heap.go)
// keyed exactly like the channel kernel's linear-scan tie-breaks; with one
// CPU the assignment degenerates to "the heap top runs", the pre-SMP loop.

// directRun is the goroutine wrapper around a thread body (DirectKernel,
// goroutine-per-thread mode).
func (th *Thread) directRun() {
	if msg := th.park(); msg.kill {
		th.directFinish(nil)
		return
	}
	th.directBody()
}

// runPooledDirect runs the body on a pool worker (DirectKernel, pooled
// mode). The thread was just picked by the scheduler, so unlike directRun
// there is no initial park: the worker already holds the virtual CPU.
func (th *Thread) runPooledDirect() { th.directBody() }

// directBody executes the body with the executive's panic discipline and
// finishes the thread — or, for an activation entity that completed
// normally, rearms it for the next release instead.
func (th *Thread) directBody() {
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
		th.directRearm()
		return
	}
	th.directFinish(err)
}

// directRearm ends one activation: the body just returned, so detach it
// (this goroutine leaves, but the thread lives on to its next release),
// rearm the release bookkeeping and keep scheduling until the token is
// handed off — the activation analogue of directFinish.
func (th *Thread) directRearm() {
	ex := th.ex
	th.detached = true
	ex.rearm(th)
	if ex.pooled {
		// Declare this worker free (or retire it) before the token is
		// handed on, exactly as directFinish does for a terminating body.
		ex.bodyFinished(th)
	}
	ex.dispatch(th)
}

// directFinish terminates the thread: during a run it applies the terminate
// request and keeps scheduling in this goroutine until the token is handed
// off; during shutdown it only reports the death to the reaper.
func (th *Thread) directFinish(err error) {
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
	ex.apply(request{th: th, kind: reqTerminate, err: err})
	if ex.pooled {
		// Declare this worker free (or retire it) before the token is
		// handed on, so a successor thread starting right away reuses it
		// instead of growing the pool.
		ex.bodyFinished(th)
	}
	ex.dispatch(th)
}

// directCall posts a kernel request and schedules inline (DirectKernel side
// of TC.kernelCall). The calling goroutine returns once its thread is
// picked to run user code again — possibly without ever parking.
func (tc *TC) directCall(req request) {
	ex := tc.th.ex
	ex.apply(req)
	if msg := ex.dispatch(tc.th); msg.kill {
		panic(killSentinel{})
	}
}

// park blocks the calling thread goroutine until it is scheduled or killed.
func (th *Thread) park() resumeMsg {
	ex := th.ex
	ex.mu.Lock()
	for !th.scheduled && !th.killed {
		th.cond.Wait()
	}
	th.scheduled = false
	killed := th.killed
	ex.mu.Unlock()
	return resumeMsg{kill: killed}
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
// no goroutine parked yet.
func (ex *Exec) handoff(cur, next *Thread) resumeMsg {
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
			go next.directBody()
		}
	} else {
		ex.wake(next)
	}
	if cur == nil {
		ex.parkMain()
		return resumeMsg{}
	}
	if curDone {
		return resumeMsg{}
	}
	return cur.park()
}

// fireDueTimersHeap pops and runs every timer due at or before now in
// (time, seq) order. Timers scheduled by a fired fn are clamped to >= now
// and carry a larger seq, so heap pop order matches the channel kernel's
// collect-sort-fire batches.
func (ex *Exec) fireDueTimersHeap() {
	for {
		k, ok := ex.peekTimer()
		if !ok || k.at > ex.now {
			return
		}
		ex.theap.pop()
		ex.fire(k.node)
		ex.freeTimer(k.node)
	}
}

// pickReadyZeroCPUHeap returns the highest-priority ready thread across
// every scheduling domain that is not mid-consume (horizon drain — time is
// frozen at the horizon instant, so the drain serializes zero-time
// completions globally, exactly like the channel kernel's all-thread scan).
func (ex *Exec) pickReadyZeroCPUHeap() *Thread {
	var best *Thread
	for d := range ex.readyQ {
		th := ex.pickReadyZeroCPUDomain(d)
		if th != nil && (best == nil || higherRank(th, best)) {
			best = th
		}
	}
	return best
}

// runDirect is the DirectKernel Run: it seeds the scheduling loop in the
// Run goroutine; the loop then migrates between goroutines with the token
// and the Run goroutine parks until the horizon, quiescence or a livelock
// ends the run.
func (ex *Exec) runDirect(until rtime.Time) error {
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
// when cur is woken again. The loop structure mirrors runChannel exactly.
func (ex *Exec) dispatch(cur *Thread) resumeMsg {
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
			ex.fireDueTimersHeap()
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
				return resumeMsg{} // batched continuation: no handoff
			}
			// A detached cur re-picked at the same instant is NOT a
			// continuation: its body already returned, so the next
			// activation needs a fresh dispatch via handoff.
			return ex.handoff(cur, th)
		case phaseDraining:
			// Zero-time work pending at the horizon instant (see runChannel).
			th := ex.pickReadyZeroCPUHeap()
			if th == nil || ex.drainSteps >= 1_000_000 {
				ex.phase = phaseDone
				continue
			}
			ex.drainSteps++
			if th == cur && !cur.detached {
				return resumeMsg{}
			}
			return ex.handoff(cur, th)
		case phaseDone:
			if cur == nil {
				return resumeMsg{} // Run goroutine: runDirect returns
			}
			// Read before the token moves; a detached cur must not park —
			// its goroutine is leaving while the thread sleeps on.
			curDone := cur.state == stateDone || cur.detached
			ex.wakeMain()
			if curDone {
				return resumeMsg{} // goroutine exits via directFinish
			}
			return cur.park() // resumes in a later Run (or unwinds on kill)
		default:
			panic("exec: kernel call outside Run")
		}
	}
}

// shutdownDirect unwinds every live thread goroutine (DirectKernel). Each
// parked thread is killed and the reaper waits for its death before moving
// on, so Shutdown returns with every goroutine gone.
func (ex *Exec) shutdownDirect() {
	for _, th := range ex.threads {
		if th.state == stateDone {
			continue
		}
		if !th.started {
			// No body in progress, so there is no goroutine to unwind: a
			// pooled thread never dispatched, or an activation entity
			// between releases (on any executive configuration).
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
}
