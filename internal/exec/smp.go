package exec

import (
	"fmt"

	"rtsj/internal/rtime"
)

// This file is the SMP generalization of the executive: M virtual CPUs
// behind the same deterministic virtual clock.
//
// Model. A *scheduling domain* is a set of CPUs sharing one ready queue:
// the Global policy has a single domain spanning every CPU, Partitioned
// has one single-CPU domain per CPU (threads are pinned by a static
// affinity map), and Clustered groups clusterSize CPUs per domain. Each
// scheduling decision selects, per domain, the top-K ready threads (K =
// CPUs in the domain, ordered by effective priority desc, readySeq asc —
// the uniprocessor tie-break) and places them onto the domain's CPUs:
// a thread already occupying a CPU keeps it, a returning thread prefers
// the CPU it last ran on, and the remaining picks fill free CPUs in
// ascending CPU index, in pick order. Consume slices then advance every
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
// M=1 is not a separate implementation: one domain, one CPU, and every
// operation above reduces exactly to the uniprocessor loop (the top of the
// single ready heap occupies CPU 0, slices advance one segment at a time),
// so traces are byte-identical to the pre-SMP executive — pinned by
// TestSMPM1MatchesUniprocessor over the whole differential corpus.
//
// Migration accounting. When a thread is placed on a CPU other than the
// one it last occupied, the move is counted (Thread.Migrations,
// Exec.Migrations) and, if the thread is mid-consume, the configured
// Options.MigrationCost is added to its remaining demand — the cache-
// reload penalty of a real migration. Placement happens in kernel context,
// so migration counts are part of the deterministic schedule.

// MigrationPolicy selects how ready threads map onto the virtual CPUs.
type MigrationPolicy int

const (
	// Global (the default) keeps one ready queue spanning every CPU: the
	// M highest-priority ready threads run, and threads migrate freely.
	Global MigrationPolicy = iota
	// Partitioned pins every thread to one CPU by a static affinity map
	// (SpawnOn, or spawn order modulo CPU count when unset); threads
	// never migrate, and each CPU schedules its partition independently.
	Partitioned
	// Clustered partitions the CPUs into clusters of clusterSize CPUs
	// and pins threads to a cluster by the same static map; threads
	// migrate freely inside their cluster but never across clusters.
	Clustered
)

// clusterSize is the CPUs-per-cluster of the Clustered policy.
const clusterSize = 2

// String returns the policy's short name.
func (p MigrationPolicy) String() string {
	switch p {
	case Partitioned:
		return "partitioned"
	case Clustered:
		return "clustered"
	default:
		return "global"
	}
}

// CPUs returns the number of virtual CPUs the executive schedules.
func (ex *Exec) CPUs() int { return ex.ncpu }

// Migration returns the executive's migration policy.
func (ex *Exec) Migration() MigrationPolicy { return ex.policy }

// Migrations returns the total number of cross-CPU thread migrations so
// far. Always 0 with one CPU or under Partitioned.
func (ex *Exec) Migrations() int { return ex.migrations }

// Migrations returns how many times the thread resumed on a different CPU
// than the one it last occupied.
func (th *Thread) Migrations() int { return th.migrations }

// SpawnOn creates a thread like Spawn with an explicit CPU affinity.
// cpu must be a valid CPU index, or -1 for no affinity (Spawn's default).
// The affinity is the static placement input of the Partitioned and
// Clustered migration policies; the Global policy ignores it and
// schedules from one shared queue.
func (ex *Exec) SpawnOn(name string, prio int, startAt rtime.Time, cpu int, body func(tc *TC)) *Thread {
	// The body is bound to a worker lazily, the first time the scheduler
	// actually runs the thread (see resume); threads that never run never
	// cost a worker.
	th := ex.newThread(name, prio, cpu, body)
	ex.scheduleFirstRelease(th, startAt)
	return th
}

// domainFor maps a thread onto its scheduling domain from its requested
// affinity and spawn index (the static affinity map of the Partitioned
// and Clustered policies).
func (ex *Exec) domainFor(affinity, spawnIdx int) int {
	if ex.ncpu == 1 {
		return 0
	}
	cpu := affinity
	if cpu < 0 {
		cpu = spawnIdx % ex.ncpu
	}
	switch ex.policy {
	case Partitioned:
		return cpu
	case Clustered:
		return cpu / clusterSize
	default:
		return 0
	}
}

// higherRank reports whether a dispatches before b: effective priority
// descending, then readySeq ascending (FIFO within a priority level by
// wake order). This is the one ordering every ready queue and pick
// shares.
func higherRank(a, b *Thread) bool {
	pa, pb := a.effPrio(), b.effPrio()
	if pa != pb {
		return pa > pb
	}
	return a.readySeq < b.readySeq
}

// assignCPUs recomputes the CPU occupancy vector (ex.cpuRun) from the
// ready queues: per domain, the top-K ready threads (K = CPUs in the
// domain) are selected and placed. It returns the number of occupied
// CPUs; zero means no thread is ready anywhere. Runs in kernel context
// under the scheduling token.
func (ex *Exec) assignCPUs() int {
	if ex.ncpu == 1 {
		// Uniprocessor fast path: the top of the single ready queue
		// occupies CPU 0 — the pre-SMP dispatch decision verbatim.
		th := ex.readyQ[0].peek()
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
	occupied := 0
	for d := range ex.domains {
		picks := ex.pickTop(d, len(ex.domains[d]))
		occupied += ex.placeDomain(ex.domains[d], picks)
	}
	return occupied
}

// pickTop returns the k highest-ranked ready threads of domain d, in
// dispatch order, using the executive's scratch buffer: it pops them off
// the domain heap and pushes them back.
func (ex *Exec) pickTop(d, k int) []*Thread {
	buf := ex.pickBuf[:0]
	h := &ex.readyQ[d]
	if k > len(h.a) {
		k = len(h.a)
	}
	for i := 0; i < k; i++ {
		buf = append(buf, h.pop())
	}
	for _, th := range buf {
		h.push(th)
	}
	ex.pickBuf = buf
	return buf
}

// placeDomain maps the picked threads of one domain onto its CPUs and
// returns how many CPUs end up occupied. Three passes, all deterministic:
// re-selected occupants keep their CPU, returning picks reclaim the CPU
// they last ran on when it is free, and the rest fill free CPUs in
// ascending CPU index in pick (priority) order — charging the migration
// cost when a mid-consume thread lands on a new CPU.
func (ex *Exec) placeDomain(cpus []int, picks []*Thread) int {
	occupied := 0
	for _, c := range cpus {
		prev := ex.cpuRun[c]
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
		if th == nil || th.lastCPU < 0 {
			continue
		}
		for _, c := range cpus {
			if c == th.lastCPU && ex.cpuRun[c] == nil {
				ex.cpuRun[c] = th
				picks[i] = nil
				occupied++
				break
			}
		}
	}
	ci := 0
	for _, th := range picks {
		if th == nil {
			continue
		}
		for ex.cpuRun[cpus[ci]] != nil {
			ci++
		}
		c := cpus[ci]
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

// SetPriority changes the calling thread's base priority, the dynamic-
// priority hook job-level-fixed schedulers (EDF) build on. The change is a
// pure kernel-state mutation under the scheduling token — it re-keys the
// thread in its ready queue and re-evaluates priority-inheritance boosts —
// and takes scheduling effect at the thread's next kernel call.
func (tc *TC) SetPriority(p int) { tc.th.ex.setBasePrio(tc.th, p) }

// setBasePrio rebases th's priority in kernel context. recomputeBoost
// re-derives the inheritance boost from the new base and re-keys the
// thread in its ready heap; when the boost is unchanged
// the effective priority is unchanged too (it is max(base, boost) and the
// boost never drops below the base), so no re-key is needed.
func (ex *Exec) setBasePrio(th *Thread, p int) {
	if p == th.prio {
		return
	}
	th.prio = p
	recomputeBoost(th)
}

// pickReadyZeroCPUDomain returns the highest-ranked ready thread of
// domain d that is not mid-consume (horizon drain). Threads mid-consume
// are popped aside, into the executive's scratch buffer, and re-pushed;
// the returned thread stays in the heap.
func (ex *Exec) pickReadyZeroCPUDomain(d int) *Thread {
	h := &ex.readyQ[d]
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

// panicBadCPU reports an out-of-range affinity request.
func (ex *Exec) panicBadCPU(name string, cpu int) {
	panic(fmt.Sprintf("exec: thread %s pinned to CPU %d of %d (want 0..%d, or -1 for none)",
		name, cpu, ex.ncpu, ex.ncpu-1))
}
