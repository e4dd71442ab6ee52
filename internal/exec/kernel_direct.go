package exec

import (
	"fmt"

	"rtsj/internal/rtime"
)

// This file is the executive's kernel: the scheduling loop and the
// coroutine handoff.
//
// Handoff. At any instant exactly one context owns the virtual CPU (the
// "token"): either the Run goroutine or one thread body, which runs on a
// resident coroutine worker (pool.go). The token owner runs the
// scheduling loop (dispatch) inline. When the loop picks the owner's own
// thread, dispatch simply returns — consecutive same-thread
// Consume/advance/sleep steps therefore never leave the coroutine
// (batching; no switch at all). Only when a *different* thread must run
// does the owner record it in ex.next and yield to the Run goroutine,
// which is a trampoline: it resumes ex.next's worker (starting the body
// on a free worker first, if it has none). A real context switch is thus
// one coroutine yield plus one resume, and never passes through the Go
// scheduler. Kernel state needs no lock: only the token owner touches it,
// and each switch is a happens-before edge.
//
// Determinism contract. Each pass of dispatch fires the due timers in
// (instant, seq) order, assigns ready threads to the virtual CPUs (top-M
// by priority, FIFO within a priority by wake order; see smp.go), lets
// zero-step occupants run in ascending CPU index order, advances consume
// slices on every occupied CPU in lockstep to the next timer or the
// horizon, and drains zero-CPU threads at the horizon. Every decision
// depends only on virtual time and the executive's sequence counter,
// never on goroutine timing, so the schedule — segments, timestamps,
// events — is the same from run to run. The ready queue and the timer
// queue are binary heaps (heap.go); with one CPU the assignment
// degenerates to "the heap top runs".

// runBody executes the body with the executive's panic discipline and
// finishes the thread — or, for an activation entity that completed
// normally, ends the activation instead. A worker runs it once the
// scheduler has picked the thread, so there is no initial park. Once the
// body has returned the thread has no worker (th.co is nil): the kernel
// neither continues nor parks it, and its next dispatch — an activation
// entity's next release — binds a worker afresh.
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
	th.co = nil
	if th.periodic && err == nil && !th.ex.shutdown {
		th.endActivation()
		return
	}
	th.finish(err)
}

// endActivation ends one activation: the body just returned (its worker is
// freed, but the thread lives on to its next release), so rearm the
// release bookkeeping and keep scheduling until the token is handed off —
// the activation analogue of finish.
func (th *Thread) endActivation() {
	th.ex.rearm(th)
	th.ex.dispatch(th)
}

// finish terminates the thread: during a run it marks the thread done and
// keeps scheduling until the token is handed off; during shutdown it only
// marks the thread done.
func (th *Thread) finish(err error) {
	ex := th.ex
	th.state = stateDone
	if err != nil {
		th.err = err
		ex.errs = append(ex.errs, err)
	}
	if ex.shutdown {
		return
	}
	ex.readyRemove(th)
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

// park suspends the calling thread's worker until the trampoline resumes
// it, and reports whether it was killed meanwhile (or its worker stopped).
func (th *Thread) park() (killed bool) {
	return !th.co.yield(struct{}{}) || th.killed
}

// handoff makes next (nil when the run is over) the thread the trampoline
// resumes, and suspends cur. cur is nil for the Run goroutine, which
// returns to the trampoline instead. A cur whose body has returned does
// not park: its worker goes back to the pool. It reports whether cur was
// killed while parked.
func (ex *Exec) handoff(cur, next *Thread) (killed bool) {
	ex.next = next
	if cur == nil || cur.co == nil {
		return false
	}
	return cur.park()
}

// resume runs th until it switches away: it continues th's suspended
// body, or first binds th to a worker when its body has not started — a
// thread's first dispatch, or an activation entity at a release. Only the
// Run goroutine calls it.
func (ex *Exec) resume(th *Thread) {
	if th.co == nil {
		th.co = ex.getWorker()
		th.co.th = th
	}
	th.co.resume()
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

// pickReadyZeroCPU returns the highest-ranked ready thread that is not
// mid-consume (horizon drain — time is frozen at the horizon instant, so
// the drain serializes zero-time completions). Threads mid-consume are
// popped aside, into the executive's scratch buffer, and re-pushed; the
// returned thread stays in the heap.
func (ex *Exec) pickReadyZeroCPU() *Thread {
	h := &ex.readyQ
	stash := ex.pickBuf[:0]
	var found *Thread
	for {
		th := h.peek()
		if th == nil {
			break
		}
		if th.needCPU == 0 {
			found = th
			break
		}
		stash = append(stash, h.pop())
	}
	for _, th := range stash {
		h.push(th)
	}
	ex.pickBuf = stash
	return found
}

// Run advances virtual time until the horizon, or until the system
// quiesces (no ready thread and no pending timer). It returns the first
// thread body error, if any. Run seeds the scheduling loop in its own
// goroutine and then trampolines: it resumes the thread the loop picked
// until the horizon, quiescence or a livelock ends the run.
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
	for ex.next != nil {
		ex.resume(ex.next)
	}
	ex.phase = phaseIdle
	if ex.runErr != nil {
		return ex.runErr
	}
	if len(ex.errs) > 0 {
		return ex.errs[0]
	}
	return nil
}

// dispatch runs the scheduling loop inline in the calling context (cur's
// body; cur == nil for the Run goroutine). It returns when cur's own
// thread is picked to run user code, or — after handing the token off —
// when cur is resumed again. It reports whether cur was killed meanwhile.
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
			if th == cur && cur.co != nil {
				return false // batched continuation: no handoff
			}
			// A cur whose body returned, re-picked at the same instant
			// (an activation re-released), is NOT a continuation: the
			// next activation needs a fresh dispatch via handoff.
			ex.stats.ContextSwitches.Inc()
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
			if th == cur && cur.co != nil {
				return false
			}
			ex.stats.ContextSwitches.Inc()
			return ex.handoff(cur, th)
		case phaseDone:
			// The trampoline stops; a parked cur resumes in a later Run
			// (or unwinds on kill).
			return ex.handoff(cur, nil)
		default:
			panic("exec: kernel call outside Run")
		}
	}
}

// Shutdown unwinds every thread body still in progress and stops every
// worker. Call after Run to avoid goroutine leaks when many executives are
// created (e.g. in benchmarks). Each suspended body is resumed with its
// kill flag set and unwinds to its worker, so Shutdown returns with every
// worker goroutine gone. Reset unwinds the same way but keeps the workers
// for the next run.
func (ex *Exec) Shutdown() {
	ex.unwind()
	ex.pool.stopWorkers()
}

// unwind kills every thread body still in progress: each suspended body is
// resumed with its kill flag set and unwinds to its worker, which goes
// back to the free list. A thread blocked on a wait queue leaves it, so a
// queue that outlives the run holds no killed thread.
func (ex *Exec) unwind() {
	ex.shutdown = true
	for _, th := range ex.threads {
		if th.state == stateDone {
			continue
		}
		if th.state == stateBlocked && th.waitQ != nil {
			th.waitQ.drop(th)
		}
		if th.co == nil {
			// No body in progress, so there is nothing to unwind: a
			// thread never dispatched, or an activation entity between
			// releases.
			th.state = stateDone
			continue
		}
		th.killed = true
		th.co.resume()
	}
}
