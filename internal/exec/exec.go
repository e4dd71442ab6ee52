package exec

import (
	"fmt"
	"sync"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Kernel selects the executive's scheduling implementation.
type Kernel int

const (
	// DirectKernel is the channel-free executive: inline scheduling with
	// batched same-thread steps and condition-variable handoffs.
	DirectKernel Kernel = iota
	// ChannelKernel is the legacy channel-rendezvous executive, kept as the
	// reference implementation for differential testing.
	ChannelKernel
)

// String returns the kernel's short name ("direct" or "channel").
func (k Kernel) String() string {
	if k == ChannelKernel {
		return "channel"
	}
	return "direct"
}

// Options configures an executive beyond the sink it records into.
type Options struct {
	// Kernel selects the scheduling implementation (default DirectKernel).
	Kernel Kernel
	// MaxGoroutines, when positive, multiplexes thread bodies over a
	// bounded pool of worker goroutines instead of one goroutine per
	// thread: a thread's goroutine is materialized lazily the first time
	// the scheduler runs it, and when its body returns the worker is
	// recycled for other bodies. MaxGoroutines is the pool's resident
	// size: workers beyond it retire as bodies finish, one per finish,
	// unless the finishing worker is the only one available to serve an
	// immediately following start (then it is reused instead). The
	// pool can transiently exceed the cap when more than MaxGoroutines
	// bodies are suspended mid-execution at once (each suspended body pins
	// its worker's stack) — the bound that holds is the peak number of
	// concurrently in-progress bodies, which for run-to-completion
	// workloads is tiny regardless of the thread count. Zero (the default)
	// keeps the goroutine-per-thread mode. Scheduling is identical either
	// way, enforced by the kernel differential tests.
	MaxGoroutines int
	// CPUs is the number of virtual CPUs the executive schedules (see
	// smp.go). Zero and one are the uniprocessor: the same code path with
	// one CPU, byte-identical to the pre-SMP executive.
	CPUs int
	// Migration selects how ready threads map onto the CPUs (Global,
	// Partitioned, Clustered). Irrelevant with one CPU.
	Migration MigrationPolicy
	// ClusterSize is the CPUs-per-cluster of the Clustered policy
	// (default 2). Ignored by the other policies.
	ClusterSize int
	// MigrationCost, when positive, is added to a thread's remaining
	// demand each time it resumes a consume on a different CPU than the
	// one it last occupied — the cache-reload penalty of a migration.
	MigrationCost rtime.Duration
	// Stats, when non-nil, wires the executive's kernel counters (context
	// switches, preemptions, heap high-water marks, pool churn) into the
	// given instrument set. Nil (the default) disables all accounting:
	// every hook site collapses to one predictable branch. Stats never
	// affect scheduling, traces or metrics — they are observational only.
	Stats *Stats
}

// MissPolicy selects how a periodic entity (SpawnPeriodic) handles a
// deadline overrun — a body still running when its next release comes due.
// The policy is applied by the activation rearm path, so it is identical
// across kernels and worker modes.
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

// resumeMsg is what the kernel delivers to a parked thread goroutine.
type resumeMsg struct {
	kill bool // the executive is shutting down; unwind now
}

type reqKind int

const (
	reqConsume reqKind = iota
	reqSleep
	reqWait
	reqTerminate
	// reqRearm ends one activation of a periodic entity (ChannelKernel;
	// the direct kernel calls rearm inline): advance the release, then
	// sleep until it as reqSleep would.
	reqRearm
)

type request struct {
	th   *Thread
	kind reqKind

	// consume
	amount rtime.Duration

	// sleep
	until rtime.Time

	// wait
	queue *WaitQueue

	// terminate
	err error
}

// Thread is a schedulable entity of the executive.
type Thread struct {
	ex   *Exec
	name string
	prio int

	state    threadState
	readySeq int64
	wakeAt   rtime.Time

	// ChannelKernel handoff.
	resumeCh chan resumeMsg

	// DirectKernel handoff: park/wake under ex.mu.
	cond      sync.Cond
	scheduled bool // wake flag of the park/wake protocol; guarded by mu
	killed    bool // shutdown kill flag; guarded by mu
	heapIdx   int  // position in the ready heap, -1 when not enqueued

	// Pooled mode: whether the body has been handed to a worker yet (a
	// thread that never starts never costs a goroutine), and the fate
	// struct of the worker currently running the body (bound per dispatch
	// by poolWorker, written by bodyFinished).
	started bool
	worker  *workerFate

	// Activation-driven periodic state (SpawnPeriodic): the release period,
	// the current/next release instant, the overrun miss policy and its
	// skip/abort counts, the optional per-release dynamic priority hook
	// (ActivationSpec.Priority), and the detach flag raised while a
	// finished body's goroutine leaves the scheduling loop (its thread
	// lives on, so handoff must not park it).
	periodic   bool
	period     rtime.Duration
	nextRel    rtime.Time
	missPolicy MissPolicy
	missed     int
	aborted    int
	detached   bool
	dynPrio    func(release rtime.Time) int

	// SMP state (kernel/token-owned, like the scheduling state above):
	// the requested CPU affinity (-1 when none), the scheduling domain
	// whose ready queue the thread lives in, the CPU it last occupied
	// (-1 before first placement) and its cross-CPU migration count.
	affinity   int
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

// runPhase is the DirectKernel scheduling-loop phase (see dispatch).
type runPhase int

const (
	phaseIdle runPhase = iota
	phaseRunning
	phaseDraining
	phaseDone
)

// Exec is the virtual-time executive. Create with New (direct kernel) or
// NewKernel, add threads with Spawn, then call Run.
type Exec struct {
	kind    Kernel
	now     rtime.Time
	threads []*Thread
	sink    trace.Sink    // never nil; trace.Nop when nothing records
	tr      *trace.Trace  // the sink when it is a *trace.Trace, else nil
	cpuSink trace.CPUSink // sink when it also records CPU indices, else nil
	stats   Stats         // instrument set; zero (all nil) when disabled
	statsOn bool          // Options.Stats was non-nil; guards hook bodies

	// Pooled mode (Options.MaxGoroutines > 0): the shared worker pool.
	pooled bool
	pool   workerPool

	// ChannelKernel state: pending timers (linear) and the request channel.
	timers []timerKey
	reqCh  chan request

	// Timer nodes not currently queued (timer.go), and how many nodes the
	// executive has allocated in all. Token-owned like the queues.
	freeTimers *timerNode
	timerNodes int

	// SMP topology (smp.go): the virtual CPU count, migration policy,
	// per-domain CPU index sets, the per-domain ready queues (DirectKernel
	// heaps; one domain with one CPU is the uniprocessor), the CPU
	// occupancy vector recomputed by assignCPUs each scheduling decision,
	// a scratch buffer for top-K selection, and the migration tally.
	ncpu        int
	policy      MigrationPolicy
	clusterSize int
	migrateCost rtime.Duration
	domains     [][]int
	readyQ      []readyHeap
	cpuRun      []*Thread
	pickBuf     []*Thread
	migrations  int

	// DirectKernel state: the timer heap and the handoff protocol.
	theap  timerHeap
	mu     sync.Mutex
	main   sync.Cond // parks the Run goroutine while threads hold the CPU
	reap   sync.Cond // Shutdown waits here for killed threads to die
	mainOn bool      // main has been scheduled (run is over); guarded by mu

	// Run-loop state shared with dispatch (DirectKernel).
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

// New returns an executive recording into sink, on the default direct
// (channel-free) kernel. A nil sink records nothing — the metrics-only fast
// path (same contract as the sim engine); pass trace.New() to keep a full
// schedule recording.
func New(sink trace.Sink) *Exec { return NewWithOptions(sink, Options{}) }

// NewKernel returns an executive on an explicitly chosen kernel. Both
// kernels implement the same deterministic scheduling contract; the choice
// only affects how goroutine handoffs are realized.
func NewKernel(sink trace.Sink, kind Kernel) *Exec {
	return NewWithOptions(sink, Options{Kernel: kind})
}

// NewWithOptions returns a fully configured executive. A nil sink (or a nil
// *trace.Trace inside the interface) is normalized to trace.Nop.
func NewWithOptions(sink trace.Sink, opts Options) *Exec {
	if tr, ok := sink.(*trace.Trace); ok && tr == nil {
		sink = nil
	}
	if sink == nil {
		sink = trace.Nop{}
	}
	ex := &Exec{kind: opts.Kernel, sink: sink, pooled: opts.MaxGoroutines > 0}
	ex.tr, _ = sink.(*trace.Trace)
	ex.cpuSink, _ = sink.(trace.CPUSink)
	if opts.Stats != nil {
		ex.stats = *opts.Stats
		ex.statsOn = true
	}
	ex.ncpu = opts.CPUs
	if ex.ncpu <= 0 {
		ex.ncpu = 1
	}
	ex.policy = opts.Migration
	ex.clusterSize = opts.ClusterSize
	if ex.clusterSize <= 0 {
		ex.clusterSize = 2
	}
	ex.migrateCost = opts.MigrationCost
	switch {
	case ex.policy == Partitioned && ex.ncpu > 1:
		for c := 0; c < ex.ncpu; c++ {
			ex.domains = append(ex.domains, []int{c})
		}
	case ex.policy == Clustered && ex.ncpu > 1:
		for lo := 0; lo < ex.ncpu; lo += ex.clusterSize {
			hi := lo + ex.clusterSize
			if hi > ex.ncpu {
				hi = ex.ncpu
			}
			cl := make([]int, 0, hi-lo)
			for c := lo; c < hi; c++ {
				cl = append(cl, c)
			}
			ex.domains = append(ex.domains, cl)
		}
	default:
		all := make([]int, ex.ncpu)
		for c := range all {
			all[c] = c
		}
		ex.domains = [][]int{all}
	}
	ex.readyQ = make([]readyHeap, len(ex.domains))
	ex.cpuRun = make([]*Thread, ex.ncpu)
	if opts.Kernel == ChannelKernel {
		ex.reqCh = make(chan request)
	}
	// The direct kernel parks on these; the channel kernel never touches
	// them, but initializing unconditionally keeps the zero-value checks
	// out of the hot path.
	ex.main.L = &ex.mu
	ex.reap.L = &ex.mu
	if ex.pooled {
		ex.pool.init(opts.MaxGoroutines)
	}
	return ex
}

// KernelKind returns the kernel this executive runs on.
func (ex *Exec) KernelKind() Kernel { return ex.kind }

// Pooled reports whether thread bodies are multiplexed over the worker
// pool (Options.MaxGoroutines > 0).
func (ex *Exec) Pooled() bool { return ex.pooled }

// PoolPeak returns the peak number of pool worker goroutines that have
// existed simultaneously (0 in goroutine-per-thread mode).
func (ex *Exec) PoolPeak() int { return ex.pool.peakWorkers() }

// PoolSpawned returns the total number of pool worker goroutines ever
// created (0 in goroutine-per-thread mode). PoolSpawned equal to PoolPeak
// means every worker was reused until the pool quiesced — no
// retire-then-respawn churn.
func (ex *Exec) PoolSpawned() int { return ex.pool.spawnedWorkers() }

// Sink returns the sink this executive records into (never nil).
func (ex *Exec) Sink() trace.Sink { return ex.sink }

// Trace returns the execution trace when the executive records into a
// *trace.Trace, and nil on the metrics-only fast path.
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
// kernel-specific handoff state). affinity is a CPU index or -1 for none.
func (ex *Exec) newThread(name string, prio, affinity int, body func(tc *TC)) *Thread {
	if affinity < -1 || affinity >= ex.ncpu {
		ex.panicBadCPU(name, affinity)
	}
	th := &Thread{
		ex:       ex,
		name:     name,
		prio:     prio,
		boost:    prio,
		state:    stateNew,
		heapIdx:  -1,
		affinity: affinity,
		lastCPU:  -1,
		body:     body,
	}
	ex.threads = append(ex.threads, th)
	th.domain = ex.domainFor(affinity, len(ex.threads)-1)
	th.tc.th = th
	ex.sink.DeclareEntity(name)
	if ex.kind == ChannelKernel {
		th.resumeCh = make(chan resumeMsg)
	} else {
		th.cond.L = &ex.mu
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

// Spawn creates a thread that becomes ready at startAt. The body runs in its
// own goroutine but under the executive's scheduling discipline. SpawnOn is
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
	if ex.kind == DirectKernel {
		if th.heapIdx >= 0 {
			ex.readyQ[th.domain].fix(th.heapIdx) // seq grew: sink to the new FIFO rank
		} else {
			ex.readyQ[th.domain].push(th)
			if ex.statsOn {
				ex.stats.ReadyMax.Max(int64(len(ex.readyQ[th.domain].a)))
			}
		}
	}
}

// readyRemove drops th from its domain's ready heap (DirectKernel
// bookkeeping; the channel kernel scans thread states instead).
func (ex *Exec) readyRemove(th *Thread) {
	if ex.kind == DirectKernel && th.heapIdx >= 0 {
		ex.readyQ[th.domain].remove(th)
	}
}

// apply processes one kernel request from a thread.
func (ex *Exec) apply(req request) {
	th := req.th
	switch req.kind {
	case reqConsume:
		th.needCPU = req.amount
	case reqSleep:
		if req.until <= ex.now {
			// Already due: stay ready (deterministic re-queue).
			ex.makeReady(th)
			return
		}
		th.state = stateSleeping
		th.wakeAt = req.until
		ex.readyRemove(th)
		ex.arm(req.until, evWake, th, nil)
	case reqWait:
		th.state = stateBlocked
		ex.readyRemove(th)
		if req.queue != nil {
			req.queue.waiters = append(req.queue.waiters, th)
		}
		// A nil queue is a bare suspension (mutex hand-off): the waker
		// calls makeReady explicitly.
	case reqTerminate:
		th.state = stateDone
		ex.readyRemove(th)
		if req.err != nil {
			th.err = req.err
			ex.errs = append(ex.errs, req.err)
		}
	case reqRearm:
		ex.rearm(th)
	}
}

// Run advances virtual time until the horizon, or until the system
// quiesces (no ready thread and no pending timer). It returns the first
// thread body error, if any.
func (ex *Exec) Run(until rtime.Time) error {
	if ex.running {
		return fmt.Errorf("exec: Run called re-entrantly")
	}
	ex.running = true
	defer func() { ex.running = false }()
	if ex.kind == ChannelKernel {
		return ex.runChannel(until)
	}
	return ex.runDirect(until)
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

// Shutdown unwinds every live thread goroutine. Call after Run to avoid
// goroutine leaks when many executives are created (e.g. in benchmarks).
func (ex *Exec) Shutdown() {
	ex.shutdown = true
	if ex.kind == ChannelKernel {
		ex.shutdownChannel()
	} else {
		ex.shutdownDirect()
	}
	if ex.pooled {
		ex.pool.close()
	}
}

// Errors returns all thread body errors observed.
func (ex *Exec) Errors() []error { return ex.errs }
