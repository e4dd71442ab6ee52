package exec

import (
	"fmt"
	"sort"

	"rtsj/internal/rtime"
)

// This file is the legacy ChannelKernel, preserved as the reference
// implementation: a central kernel loop in the Run goroutine hands control
// to a thread with a channel send and waits for the thread's next kernel
// call on a shared request channel. Every kernel call therefore costs two
// goroutine handoffs; the ready queue and timer list are linear scans. The
// DirectKernel (kernel_direct.go) must produce schedules identical to this
// one — see the differential tests.
//
// One deliberate semantic fix over the seed implementation, shared by both
// kernels and pinned by TestKernelDiffSameInstantCancel: a timer cancelled
// by an earlier timer fn due at the same instant never fires (the seed's
// batch collection fired it anyway).

// channelRun is the goroutine wrapper around a thread body (ChannelKernel,
// goroutine-per-thread mode).
func (th *Thread) channelRun() {
	msg := <-th.resumeCh
	if msg.kill {
		th.ex.reqCh <- request{th: th, kind: reqTerminate}
		return
	}
	th.channelBody()
}

// runPooledChannel runs the body on a pool worker (ChannelKernel, pooled
// mode). The kernel loop just resumed the thread by handing it to the pool,
// so there is no initial rendezvous on resumeCh.
func (th *Thread) runPooledChannel() { th.channelBody() }

// channelBody executes the body with the executive's panic discipline and
// reports termination — or, for an activation entity that completed
// normally, the rearm for its next release — to the kernel loop.
func (th *Thread) channelBody() {
	defer func() {
		var err error
		if r := recover(); r != nil {
			if _, isKill := r.(killSentinel); !isKill {
				err = fmt.Errorf("exec: thread %s panicked: %v", th.name, r)
			}
		}
		if th.ex.pooled {
			// Declare this worker free (or retire it) before the kernel
			// loop learns of the termination and possibly starts the next
			// unstarted thread.
			th.ex.bodyFinished(th)
		}
		kind := reqTerminate
		if th.periodic && err == nil && !th.ex.shutdown {
			kind = reqRearm
		}
		th.ex.reqCh <- request{th: th, kind: kind, err: err}
	}()
	th.callBody()
}

// resume lets th execute user code to its next kernel call: waking its
// parked goroutine, or — for an unstarted body (pooled thread before first
// dispatch, or an activation entity at a release) — dispatching the body
// on a pool worker, or a fresh per-activation goroutine outside pooled
// mode.
func (ex *Exec) resume(th *Thread) {
	ex.stats.ContextSwitches.Inc()
	if !th.started {
		th.started = true
		th.detached = false
		if ex.pooled {
			ex.startThread(th)
		} else {
			go th.channelBody()
		}
		return
	}
	th.resumeCh <- resumeMsg{}
}

// channelCall posts a kernel request and parks until the kernel resumes the
// thread (ChannelKernel side of TC.kernelCall).
func (tc *TC) channelCall(req request) {
	tc.th.ex.reqCh <- req
	msg := <-tc.th.resumeCh
	if msg.kill {
		panic(killSentinel{})
	}
}

// pickReady returns the highest-priority ready thread (FIFO within a
// priority level by wake order), or nil.
func (ex *Exec) pickReady() *Thread {
	var best *Thread
	for _, th := range ex.threads {
		if th.state != stateReady {
			continue
		}
		if best == nil || th.effPrio() > best.effPrio() ||
			(th.effPrio() == best.effPrio() && th.readySeq < best.readySeq) {
			best = th
		}
	}
	return best
}

// pickReadyZeroCPU returns the highest-priority ready thread that is not
// mid-consume (used by the horizon drain).
func (ex *Exec) pickReadyZeroCPU() *Thread {
	var best *Thread
	for _, th := range ex.threads {
		if th.state != stateReady || th.needCPU > 0 {
			continue
		}
		if best == nil || th.effPrio() > best.effPrio() ||
			(th.effPrio() == best.effPrio() && th.readySeq < best.readySeq) {
			best = th
		}
	}
	return best
}

// fireDueTimers runs every timer due at or before now, in (time, seq) order.
// Nodes go back to the free list once their key leaves the list: dropped
// when cancelled, after firing otherwise.
func (ex *Exec) fireDueTimers() {
	for {
		var due []timerKey
		rest := ex.timers[:0]
		for _, k := range ex.timers {
			switch {
			case !k.live():
				ex.freeTimer(k.node)
			case k.at <= ex.now:
				due = append(due, k)
			default:
				rest = append(rest, k)
			}
		}
		ex.timers = rest
		if len(due) == 0 {
			return
		}
		sort.Slice(due, func(i, j int) bool {
			if due[i].at != due[j].at {
				return due[i].at < due[j].at
			}
			return due[i].seq < due[j].seq
		})
		for _, k := range due {
			if k.live() {
				ex.fire(k.node) // may schedule new timers; loop again
			}
			// A key cancelled by an earlier timer in this batch never
			// fires (matches the direct kernel's lazy-deletion pop, which
			// re-checks liveness at the top).
			ex.freeTimer(k.node)
		}
	}
}

// runChannel is the ChannelKernel main loop.
func (ex *Exec) runChannel(until rtime.Time) error {
	zeroSteps := 0
	lastNow := ex.now
	for ex.now < until {
		ex.fireDueTimers()
		if ex.assignCPUs() == 0 {
			at, ok := ex.nextTimer()
			if !ok {
				break // quiescent: nothing will ever happen again
			}
			ex.now = rtime.Min(at, until)
			continue
		}
		th := ex.zeroStepOccupant()
		if th == nil {
			ex.runSlices(until)
			continue
		}
		// Zero-time step: let the thread execute Go code until its next
		// kernel call.
		if ex.now == lastNow {
			zeroSteps++
			if zeroSteps > 1_000_000 {
				return fmt.Errorf("exec: livelock at %v: thread %s loops without consuming",
					ex.now, th.name)
			}
		} else {
			zeroSteps = 0
			lastNow = ex.now
		}
		ex.resume(th)
		req := <-ex.reqCh
		ex.apply(req)
	}
	if ex.now > until {
		ex.now = until
	}
	// Drain zero-time work pending at the horizon instant: a consume that
	// finished exactly at the horizon must still return to its thread so
	// completion bookkeeping (e.g. a server marking a handler served) is
	// observable — the discrete-event simulator records such completions,
	// and the two engines must agree at the boundary.
	for steps := 0; steps < 1_000_000; steps++ {
		th := ex.pickReadyZeroCPU()
		if th == nil {
			break
		}
		ex.resume(th)
		req := <-ex.reqCh
		ex.apply(req)
	}
	if len(ex.errs) > 0 {
		return ex.errs[0]
	}
	return nil
}

// shutdownChannel unwinds every live thread goroutine (ChannelKernel).
func (ex *Exec) shutdownChannel() {
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
		th.resumeCh <- resumeMsg{kill: true}
		req := <-ex.reqCh
		if req.kind != reqTerminate {
			// The kill unwinds to the terminate request; anything else is
			// a protocol bug.
			panic(fmt.Sprintf("exec: thread %s sent %d during shutdown", req.th.name, req.kind))
		}
		req.th.state = stateDone
	}
}
