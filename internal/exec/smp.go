package exec

import "rtsj/internal/rtime"

// This file is the SMP generalization of the executive: M virtual CPUs
// behind the same deterministic virtual clock.
//
// Model. Every CPU is fed from the one ready queue. Each scheduling
// decision selects the top-M ready threads (ordered by effective priority
// desc, readySeq asc — the uniprocessor tie-break) and places them onto
// the CPUs: a thread already occupying a CPU keeps it, a returning thread
// prefers the CPU it last ran on, and the remaining picks fill free CPUs
// in ascending CPU index, in pick order. Consume slices then advance every
// occupied CPU in lockstep to the next timer, horizon or earliest consume
// completion, emitting one trace segment per CPU per slice.
//
// Token and handoff. Virtual time is global, so zero-time steps (user code
// between kernel calls) still serialize under the single scheduling token
// — the per-CPU structure is the occupancy vector (cpuRun) plus each
// occupant's own suspended worker, resumed by the same trampoline as on
// the uniprocessor. When several
// occupants are due a zero-time step at one instant they step in ascending
// CPU index order, which makes the schedule a pure function of the spec:
// the full tie-break order is (instant, CPU index, effective priority,
// readySeq — i.e. wake order, and ultimately spawn order).
//
// M=1 is not a separate implementation: one CPU, and every operation
// above reduces exactly to the uniprocessor loop (the top of the ready
// heap occupies CPU 0, slices advance one segment at a time), so traces
// are byte-identical to the pre-SMP executive — pinned by
// TestSMPM1MatchesUniprocessor over the whole differential corpus.
//
// Migration accounting. When a thread is placed on a CPU other than the
// one it last occupied, the move is counted (Thread.Migrations,
// Exec.Migrations) and, if the thread is mid-consume, the configured
// Options.MigrationCost is added to its remaining demand — the cache-
// reload penalty of a real migration. Placement happens in kernel context,
// so migration counts are part of the deterministic schedule.

// CPUs returns the number of virtual CPUs the executive schedules.
func (ex *Exec) CPUs() int { return ex.ncpu }

// Migrations returns the total number of cross-CPU thread migrations so
// far. Always 0 with one CPU.
func (ex *Exec) Migrations() int { return ex.migrations }

// Migrations returns how many times the thread resumed on a different CPU
// than the one it last occupied.
func (th *Thread) Migrations() int { return th.migrations }

// assignCPUs recomputes the CPU occupancy vector (ex.cpuRun) from the
// ready queue: the top-M ready threads are selected and placed. It
// returns the number of occupied CPUs; zero means no thread is ready.
// Runs in kernel context under the scheduling token.
func (ex *Exec) assignCPUs() int {
	if ex.ncpu == 1 {
		// Uniprocessor fast path: the top of the ready queue occupies
		// CPU 0 — the pre-SMP dispatch decision verbatim.
		th := ex.readyQ.peek()
		if ex.statsOn {
			if prev := ex.cpuRun[0]; prev != nil && prev != th && prev.state == stateReady && prev.needCPU > 0 {
				ex.stats.Preemptions.Inc()
			}
		}
		ex.cpuRun[0] = th
		if th == nil {
			return 0
		}
		th.lastCPU = 0
		return 1
	}
	return ex.place(ex.pickTop(ex.ncpu))
}

// pickTop returns the k highest-ranked ready threads, in dispatch order,
// using the executive's scratch buffer: it pops them off the ready heap
// and pushes them back.
func (ex *Exec) pickTop(k int) []*Thread {
	buf := ex.pickBuf[:0]
	h := &ex.readyQ
	k = min(k, len(h.a))
	for i := 0; i < k; i++ {
		buf = append(buf, h.pop())
	}
	for _, th := range buf {
		h.push(th)
	}
	ex.pickBuf = buf
	return buf
}

// place maps the picked threads onto the CPUs and returns how many CPUs
// end up occupied. Three passes, all deterministic: re-selected occupants
// keep their CPU, returning picks reclaim the CPU they last ran on when
// it is free, and the rest fill free CPUs in ascending CPU index in pick
// (priority) order — charging the migration cost when a mid-consume
// thread lands on a new CPU.
func (ex *Exec) place(picks []*Thread) int {
	occupied := 0
	for c, prev := range ex.cpuRun {
		ex.cpuRun[c] = nil
		if prev == nil {
			continue
		}
		for i, th := range picks {
			if th == prev {
				ex.cpuRun[c] = prev
				picks[i] = nil
				occupied++
				break
			}
		}
		if ex.statsOn && ex.cpuRun[c] == nil && prev.state == stateReady && prev.needCPU > 0 {
			ex.stats.Preemptions.Inc()
		}
	}
	for i, th := range picks {
		if th != nil && th.lastCPU >= 0 && ex.cpuRun[th.lastCPU] == nil {
			ex.cpuRun[th.lastCPU] = th
			picks[i] = nil
			occupied++
		}
	}
	c := 0
	for _, th := range picks {
		if th == nil {
			continue
		}
		for ex.cpuRun[c] != nil {
			c++
		}
		ex.cpuRun[c] = th
		occupied++
		if th.lastCPU >= 0 && th.lastCPU != c {
			th.migrations++
			ex.migrations++
			ex.stats.Migrations.Inc()
			if ex.migrateCost > 0 && th.needCPU > 0 {
				// The cache-reload penalty: a thread resuming a consume on
				// a new CPU owes extra demand. Zero-time placements (the
				// thread is between consumes) move for free.
				th.needCPU += ex.migrateCost
			}
		}
		th.lastCPU = c
	}
	return occupied
}

// zeroStepOccupant returns the occupant of the lowest-indexed CPU that is
// due a zero-time step (no pending consume), or nil when every occupied
// CPU is mid-consume. The ascending CPU index is part of the deterministic
// tie-break order.
func (ex *Exec) zeroStepOccupant() *Thread {
	for _, th := range ex.cpuRun {
		if th != nil && th.needCPU == 0 {
			return th
		}
	}
	return nil
}

// runSlices advances virtual time while every occupied CPU consumes,
// stopping at the next timer, the horizon, or the earliest consume
// completion (whichever comes first) so preemption can occur. One trace
// segment per occupied CPU is emitted per slice, in ascending CPU index
// order; all CPUs advance in lockstep on the shared virtual clock.
func (ex *Exec) runSlices(until rtime.Time) {
	stop := until
	if k, ok := ex.peekTimer(); ok {
		stop = rtime.Min(stop, k.at)
	}
	delta := stop.Sub(ex.now)
	for _, th := range ex.cpuRun {
		if th != nil && th.needCPU < delta {
			delta = th.needCPU
		}
	}
	if delta <= 0 {
		// A timer due exactly now; fire it on the next loop iteration.
		return
	}
	end := ex.now.Add(delta)
	for c, th := range ex.cpuRun {
		if th == nil {
			continue
		}
		if ex.tr != nil {
			ex.tr.RunOn(th.name, c, ex.now, end, th.label)
		}
		th.needCPU -= delta
		th.consumed += delta
	}
	ex.now = end
}
