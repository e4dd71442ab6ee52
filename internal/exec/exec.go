package exec

import (
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Options configures an executive beyond the trace it records into.
type Options struct {
	// CPUs is the number of virtual CPUs the executive schedules (see
	// smp.go). Zero and one are the uniprocessor: the same code path with
	// one CPU, byte-identical to the pre-SMP executive.
	CPUs int
	// Migration selects how ready threads map onto the CPUs (Global,
	// Partitioned, Clustered). Irrelevant with one CPU.
	Migration MigrationPolicy
	// MigrationCost, when positive, is added to a thread's remaining
	// demand each time it resumes a consume on a different CPU than the
	// one it last occupied — the cache-reload penalty of a migration.
	MigrationCost rtime.Duration
	// Stats, when non-nil, wires the executive's kernel counters (context
	// switches, preemptions, heap high-water marks, worker creation) into the
	// given instrument set. Nil (the default) disables all accounting:
	// every hook site collapses to one predictable branch. Stats never
	// affect scheduling, traces or metrics — they are observational only.
	Stats *Stats
}

// MissPolicy selects how a periodic entity (SpawnPeriodic) handles a
// deadline overrun — a body still running when its next release comes due.
// The policy is applied by the activation rearm path, so it is identical
// on every executive configuration.
type MissPolicy int

const (
	// MissSkip (the default) skips releases the body overran past,
	// counting each skip (Thread.MissedActivations) — the RTSJ's
	// WaitForNextPeriod semantics without a miss handler.
	MissSkip MissPolicy = iota
	// MissContinueLate releases the next period immediately when it is
	// already past due instead of skipping to the next on-time release:
	// the entity runs late but performs every release. Late releases are
	// counted in Thread.MissedActivations.
	MissContinueLate
	// MissAbort bounds each activation by its implicit deadline (release +
	// period): a body still consuming at the deadline unwinds via the
	// budgeted-section mechanism (see TC.WithBudget) and the abort is
	// counted (Thread.AbortedActivations). The body must not open its own
	// WithBudget section — budgeted sections do not nest.
	MissAbort
)

// String returns the policy's short name.
func (p MissPolicy) String() string {
	switch p {
	case MissContinueLate:
		return "continue-late"
	case MissAbort:
		return "abort"
	default:
		return "skip"
	}
}

type threadState int

const (
	stateNew threadState = iota
	stateReady
	stateSleeping
	stateBlocked
	stateDone
)

// Thread is a schedulable entity of the executive.
type Thread struct {
	ex   *Exec
	name string
	prio int

	state    threadState
	readySeq int64
	wakeAt   rtime.Time

	heapIdx int     // position in the ready heap, -1 when not enqueued
	co      *worker // the worker running the body, nil while none is in progress
	killed  bool    // shutdown kill flag

	// Activation-driven periodic state (SpawnPeriodic): the release period,
	// the current/next release instant, the overrun miss policy and its
	// skip/abort counts, and the optional per-release dynamic priority
	// hook (ActivationSpec.Priority).
	periodic   bool
	period     rtime.Duration
	nextRel    rtime.Time
	missPolicy MissPolicy
	missed     int
	aborted    int
	dynPrio    func(release rtime.Time) int

	// SMP state (kernel/token-owned, like the scheduling state above):
	// the scheduling domain whose ready queue the thread lives in, the
	// CPU it last occupied (-1 before first placement) and its cross-CPU
	// migration count.
	domain     int
	lastCPU    int
	migrations int

	// Consume state.
	needCPU  rtime.Duration
	consumed rtime.Duration // total CPU consumed, for accounting

	// Budgeted-section (Timed) state.
	inBudget      bool
	pendingIntr   bool
	intrDelivered bool

	// Priority-inheritance state.
	boost     int
	held      []*Mutex
	waitingOn *Mutex

	waitQ *WaitQueue // the queue of the thread's last Wait, nil for none

	label string
	body  func(tc *TC)
	tc    TC // the context every dispatch of body receives
	err   error
}

// Name returns the thread's trace row name.
func (th *Thread) Name() string { return th.name }

// Priority returns the thread's fixed priority (larger is higher).
func (th *Thread) Priority() int { return th.prio }

// Consumed returns the total virtual CPU time the thread has consumed.
func (th *Thread) Consumed() rtime.Duration { return th.consumed }

// Done reports whether the thread has terminated.
func (th *Thread) Done() bool { return th.state == stateDone }

// Err returns the error a thread terminated with (a panic in its body).
func (th *Thread) Err() error { return th.err }

// WaitQueue is a FIFO queue of blocked threads, the executive's only
// blocking primitive (condition-variable style: wait / notify).
type WaitQueue struct {
	name    string
	waiters []*Thread
}

// NewWaitQueue returns a named wait queue.
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{name: name} }

// runPhase is the scheduling-loop phase (see dispatch).
type runPhase int

const (
	phaseIdle runPhase = iota
	phaseRunning
	phaseDraining
	phaseDone
)

// Exec is the virtual-time executive. Create with NewWithOptions,
// add threads with Spawn, then call Run.
type Exec struct {
	now     rtime.Time
	threads []*Thread
	tr      *trace.Trace // the recording; nil records nothing
	stats   Stats        // instrument set; zero (all nil) when disabled
	statsOn bool         // Options.Stats was non-nil; guards hook bodies

	// Thread storage: every chunk newThread has carved threads from, the
	// unused tail of the chunk in use, and the index of the chunk after
	// it. Reset rewinds to the first chunk.
	threadChunks [][]Thread
	threadChunk  []Thread
	nextChunk    int

	// The coroutine workers thread bodies run on (pool.go).
	pool workerPool

	// Timer nodes not currently queued (timer.go), and how many nodes the
	// executive has allocated in all. Token-owned like the queues.
	freeTimers *timerNode
	timerNodes int

	// SMP topology (smp.go): the virtual CPU count, migration policy,
	// per-domain CPU index sets, the per-domain ready queues (heaps; one
	// domain with one CPU is the uniprocessor), the CPU
	// occupancy vector recomputed by assignCPUs each scheduling decision,
	// a scratch buffer for top-K selection and the horizon drain, and the
	// migration tally.
	ncpu        int
	policy      MigrationPolicy
	migrateCost rtime.Duration
	domains     [][]int
	readyQ      []readyHeap
	cpuRun      []*Thread
	pickBuf     []*Thread
	migrations  int

	// The timer heap, and the thread the Run trampoline resumes next
	// (nil once the run is over).
	theap timerHeap
	next  *Thread

	// Run-loop state shared with dispatch.
	phase      runPhase
	until      rtime.Time
	zeroSteps  int
	lastNow    rtime.Time
	drainSteps int
	runErr     error

	seq      int64
	running  bool
	shutdown bool
	errs     []error
}

// NewWithOptions returns an executive recording into tr. A nil tr records
// nothing — the metrics-only fast path, the same convention as the sim
// engine; pass trace.New() to keep a full schedule recording.
func NewWithOptions(tr *trace.Trace, opts Options) *Exec {
	ex := &Exec{}
	ex.configure(tr, opts)
	return ex
}

// configure applies tr and opts to an executive with no thread: the
// recording, the stats hooks and the CPU topology. It rebuilds the
// scheduling domains only when the topology changed, and reuses the ready
// queues' and the occupancy vector's storage.
func (ex *Exec) configure(tr *trace.Trace, opts Options) {
	ex.tr = tr
	ex.stats, ex.statsOn = Stats{}, false
	if opts.Stats != nil {
		ex.stats = *opts.Stats
		ex.statsOn = true
	}
	ncpu := max(opts.CPUs, 1)
	if ex.domains == nil || ncpu != ex.ncpu || opts.Migration != ex.policy {
		ex.domains = buildDomains(ncpu, opts.Migration)
	}
	ex.ncpu = ncpu
	ex.policy = opts.Migration
	ex.migrateCost = opts.MigrationCost
	if n := len(ex.domains); cap(ex.readyQ) < n {
		ex.readyQ = make([]readyHeap, n)
	} else {
		ex.readyQ = ex.readyQ[:n]
	}
	if cap(ex.cpuRun) < ncpu {
		ex.cpuRun = make([]*Thread, ncpu)
	}
	ex.cpuRun = ex.cpuRun[:ncpu]
}

// buildDomains returns the CPU index sets of the scheduling domains of
// ncpu CPUs under policy (see smp.go).
func buildDomains(ncpu int, policy MigrationPolicy) [][]int {
	var domains [][]int
	switch {
	case policy == Partitioned && ncpu > 1:
		for c := 0; c < ncpu; c++ {
			domains = append(domains, []int{c})
		}
	case policy == Clustered && ncpu > 1:
		for lo := 0; lo < ncpu; lo += clusterSize {
			hi := min(lo+clusterSize, ncpu)
			cl := make([]int, 0, hi-lo)
			for c := lo; c < hi; c++ {
				cl = append(cl, c)
			}
			domains = append(domains, cl)
		}
	default:
		all := make([]int, ncpu)
		for c := range all {
			all[c] = c
		}
		domains = [][]int{all}
	}
	return domains
}

// Reset unwinds every thread body still in progress, as Shutdown does,
// and returns the executive to the state NewWithOptions(tr, opts) builds:
// no thread, virtual time zero, a fresh sequence counter. It keeps the
// storage a run has grown — the resident coroutine workers with their
// stacks, the timer nodes (back on the free list), the timer and ready
// heaps and the thread chunks — so a run after Reset allocates only what
// outgrows the previous runs. The schedule of a run after Reset is the
// schedule the same setup gives on a fresh executive. Call Reset between
// runs, never from a thread body; Shutdown stays the caller's duty when
// the executive is dropped, since only Shutdown stops the workers.
//
// Two hazards come with the reuse:
//   - a Timer handle from a previous run must not be used: sequence
//     numbers restart, so a stale handle can match, and cancel, a timer of
//     the new run that reuses its node;
//   - a *Thread from a previous run aliases the new run's threads: its
//     storage is cleared by Reset and carved again by the next Spawn.
func (ex *Exec) Reset(tr *trace.Trace, opts Options) {
	if ex.running {
		panic("exec: Reset during Run")
	}
	ex.unwind()
	for _, th := range ex.threads {
		*th = Thread{}
	}
	clear(ex.threads)
	ex.threads = ex.threads[:0]
	ex.threadChunk, ex.nextChunk = nil, 0
	for _, k := range ex.theap.a {
		ex.freeTimer(k.node)
	}
	clear(ex.theap.a)
	ex.theap.a = ex.theap.a[:0]
	for d := range ex.readyQ {
		clear(ex.readyQ[d].a)
		ex.readyQ[d].a = ex.readyQ[d].a[:0]
	}
	clear(ex.cpuRun)
	ex.pickBuf = ex.pickBuf[:0]
	ex.now = 0
	ex.migrations = 0
	ex.next = nil
	ex.phase = phaseIdle
	ex.until, ex.zeroSteps, ex.lastNow, ex.drainSteps = 0, 0, 0, 0
	ex.runErr = nil
	ex.seq = 0
	ex.shutdown = false
	ex.errs = nil
	ex.configure(tr, opts)
}

// PoolPeak returns the number of coroutine workers the executive has
// made. Workers stay resident until Shutdown, and Reset keeps them, so
// this is also the peak number of thread bodies that were in progress at
// once in any run since construction.
func (ex *Exec) PoolPeak() int { return ex.pool.made }

// Trace returns the execution trace, and nil on the metrics-only fast
// path.
func (ex *Exec) Trace() *trace.Trace { return ex.tr }

// Now returns the current virtual time. Safe to call from thread bodies.
func (ex *Exec) Now() rtime.Time { return ex.now }

// Threads returns every spawned thread, in spawn order. Call only while no
// Run is in progress (the slice itself is copied, but thread state is owned
// by the scheduling loop).
func (ex *Exec) Threads() []*Thread {
	out := make([]*Thread, len(ex.threads))
	copy(out, ex.threads)
	return out
}

// newThread constructs and registers a thread without starting or
// scheduling it — the construction invariants shared by Spawn and
// SpawnPeriodic (entity declaration, scheduling-domain assignment,
// handoff state). affinity is a CPU index or -1 for none.
func (ex *Exec) newThread(name string, prio, affinity int, body func(tc *TC)) *Thread {
	if affinity < -1 || affinity >= ex.ncpu {
		ex.panicBadCPU(name, affinity)
	}
	if len(ex.threadChunk) == 0 {
		if ex.nextChunk == len(ex.threadChunks) {
			ex.threadChunks = append(ex.threadChunks, make([]Thread, chunkSize(len(ex.threads), 1)))
		}
		ex.threadChunk = ex.threadChunks[ex.nextChunk]
		ex.nextChunk++
	}
	th := &ex.threadChunk[0]
	ex.threadChunk = ex.threadChunk[1:]
	*th = Thread{
		ex:      ex,
		name:    name,
		prio:    prio,
		boost:   prio,
		state:   stateNew,
		heapIdx: -1,
		lastCPU: -1,
		body:    body,
	}
	ex.threads = append(ex.threads, th)
	th.domain = ex.domainFor(affinity, len(ex.threads)-1)
	th.tc.th = th
	if ex.tr != nil {
		ex.tr.DeclareEntity(name)
	}
	return th
}

// scheduleFirstRelease makes th ready at startAt: immediately when due,
// else sleeping behind a wake timer.
func (ex *Exec) scheduleFirstRelease(th *Thread, startAt rtime.Time) {
	if startAt <= ex.now {
		ex.makeReady(th)
	} else {
		th.state = stateSleeping
		th.wakeAt = startAt
		ex.arm(startAt, evRelease, th, nil)
	}
}

// Spawn creates a thread that becomes ready at startAt. The body runs on a
// coroutine worker under the executive's scheduling discipline. SpawnOn is
// the same with an explicit CPU affinity.
func (ex *Exec) Spawn(name string, prio int, startAt rtime.Time, body func(tc *TC)) *Thread {
	return ex.SpawnOn(name, prio, startAt, -1, body)
}

type killSentinel struct{}

// aieSentinel models the AsynchronouslyInterruptedException unwinding a
// Timed section.
type aieSentinel struct{}

func (ex *Exec) nextSeq() int64 {
	ex.seq++
	return ex.seq
}

// makeReady moves th to its domain's ready queue (re-queuing, with a fresh
// FIFO rank, if it was already there).
func (ex *Exec) makeReady(th *Thread) {
	if th.state == stateDone {
		return
	}
	th.state = stateReady
	th.readySeq = ex.nextSeq()
	if th.heapIdx >= 0 {
		ex.readyQ[th.domain].fix(th.heapIdx) // seq grew: sink to the new FIFO rank
	} else {
		ex.readyQ[th.domain].push(th)
		if ex.statsOn {
			ex.stats.ReadyMax.Max(int64(len(ex.readyQ[th.domain].a)))
		}
	}
}

// readyRemove drops th from its domain's ready heap, if it is queued.
func (ex *Exec) readyRemove(th *Thread) {
	if th.heapIdx >= 0 {
		ex.readyQ[th.domain].remove(th)
	}
}

// sleepUntil puts th to sleep until instant until. A sleep that is already
// due keeps th ready instead, re-queued behind its priority peers (a
// deterministic yield).
func (ex *Exec) sleepUntil(th *Thread, until rtime.Time) {
	if until <= ex.now {
		ex.makeReady(th)
		return
	}
	th.state = stateSleeping
	th.wakeAt = until
	ex.readyRemove(th)
	ex.arm(until, evWake, th, nil)
}

// block suspends th on q. A nil q is a bare suspension (mutex hand-off):
// the waker calls makeReady explicitly.
func (ex *Exec) block(th *Thread, q *WaitQueue) {
	th.state = stateBlocked
	th.waitQ = q
	ex.readyRemove(th)
	if q != nil {
		q.waiters = append(q.waiters, th)
	}
}

// interruptNow delivers an asynchronous interrupt to th's budgeted section:
// if th is consuming, the consume aborts; the interrupt stays pending until
// the section ends otherwise. While the thread holds any lock the delivery
// is deferred — the RTSJ defers AsynchronouslyInterruptedException inside
// synchronized code, so critical sections never unwind half-way (Unlock
// re-arms the delivery).
func (ex *Exec) interruptNow(th *Thread) {
	if !th.inBudget || th.state == stateDone {
		return
	}
	th.pendingIntr = true
	if len(th.held) > 0 {
		return
	}
	if th.state == stateReady && th.needCPU > 0 {
		// Abort the in-progress consume; the thread will observe the
		// interruption when next scheduled.
		th.needCPU = 0
		th.intrDelivered = true
	}
}

// Errors returns all thread body errors observed.
func (ex *Exec) Errors() []error { return ex.errs }
