// Package exec is a deterministic virtual-time executive: it runs thread
// bodies as preemptive fixed-priority threads over a simulated clock.
//
// This is the substrate that replaces the paper's execution platform (the
// RTSJ reference implementation on a real-time Linux kernel). Go's garbage
// collector and goroutine scheduler preclude faithful hard real-time
// behaviour on the wall clock, so instead the executive virtualizes time:
// threads declare CPU demand with Consume, and the kernel advances a virtual
// clock, preempting and interleaving exactly as a uniprocessor
// fixed-priority scheduler would. Everything the paper's measurements depend
// on — preemption by higher-priority timer threads, asynchronous
// interruption of a budgeted section (Timed/AIE), wall-clock capacity
// accounting — is reproduced exactly and deterministically.
//
// Mechanics: thread bodies run on coroutines, but exactly one runs at a
// time; code between kernel calls executes in zero virtual time, and
// virtual time only advances while a thread is inside Consume or the
// processor is idle.
//
// # The kernel
//
// Every thread body runs on a resident coroutine worker (iter.Pull), and
// the scheduling loop runs inline in whichever body currently holds the
// virtual CPU (kernel_direct.go), so consecutive same-thread
// Consume/advance/sleep steps never leave the body's coroutine. Only when
// a *different* thread must run does the body yield to the goroutine that
// called Run, a trampoline that resumes the chosen thread's worker: a
// real context switch is one coroutine yield plus one resume, and never
// passes through the Go scheduler. The ready queues and the timer queue
// are binary heaps. Use New for the defaults and NewWithOptions for full
// configuration.
//
// Determinism is checked two ways. The differential tests run every
// scenario on every configuration (looping or activation periodics,
// uniprocessor or one-CPU SMP) and compare the schedules segment by
// segment against the looping uniprocessor run; and that reference run
// must match a committed trace fingerprint (trace.Trace.Fingerprint), so
// a change to any schedule fails a test even when every configuration
// changes alike.
//
// # Timers and the allocation-free steady state
//
// Every kernel timer is a node plus a value key (timer.go). The timer heap
// stores {instant, seq, node} by value, so ordering never dereferences a
// node. Kernel-internal timers are typed events (a kind plus the thread
// they act on: first release, sleep wake-up — which also re-releases an
// activation entity through rearm — and WithBudget expiry) instead of
// closures, all fired through one function. At and rtsjvm.VM.FireAt return a Timer handle whose Cancel
// checks the handle's seq against the node's, so a stale handle never
// cancels the newer timer that reused its node. Nodes are recycled
// through a per-executive free list owned, like all kernel state, by the
// scheduling-token holder, and a node is recycled only after its key has
// left the queue.
//
// With the thread context embedded in Thread and bodies started on
// resident workers that are reused, never made per body, the warm
// executive allocates nothing per release, per kernel call or per context
// switch; the allocation tests in alloc_test.go pin that contract.
//
// # Trace recording
//
// The executive records into a *trace.Trace, and only when it is non-nil.
// Passing trace.New() accumulates a full schedule recording; passing nil
// records nothing — the metrics-only fast path used by the table
// experiments, which pays one pointer test per slice instead of a segment
// append.
//
// # Pooled workers
//
// Bodies start lazily on free workers (pool.go): a thread binds a worker
// the first time it is scheduled and frees it when its body returns, so
// the number of workers is the peak number of bodies in progress at once,
// not the thread count. Every worker made stays resident until Shutdown.
//
// # Lifecycle
//
// An executive goes New → Run → Reset → Run … → Shutdown. NewWithOptions
// builds it; threads are spawned and timers armed before a Run, and a Run
// may be followed by more spawns and a later Run with a further horizon.
// Reset ends a run for good: it unwinds every body still in progress (as
// Shutdown does) and returns the executive to the state NewWithOptions
// builds, under new Options if wanted, while keeping its storage — the
// resident workers with their grown stacks, the timer nodes, the heaps and
// the thread chunks. A warm executive therefore runs system after system
// without allocating (TestAllocsResetRun). A Timer or *Thread handle from
// before a Reset must not be used after it (see Reset). Reset never stops
// a worker: the resident workers are coroutines the garbage collector
// cannot reclaim, so whoever owns the executive must call Shutdown when
// it drops it, and Shutdown is the only call that stops them.
//
// # Activation-driven periodic entities
//
// SpawnPeriodic expresses a periodic entity as an activation body dispatched
// once per release (activation.go) instead of a long-lived loop parked in a
// sleep between releases. The body returning is the release boundary:
// overruns skip (and count) missed releases, exactly like the RTSJ's
// WaitForNextPeriod without a miss handler. Between releases the entity
// owns no worker at all, which matters for periodic-heavy workloads:
// looping bodies pin one worker per entity for the whole run, while
// activations hold the worker count at the peak number of releases in
// progress. Schedules are identical in both formulations.
//
// # Choosing a configuration
//
// Spawn suits one-shot and self-looping threads; SpawnPeriodic suits
// many long-running periodic entities, and removes the last per-entity
// worker. Both formulations are differential-tested to produce identical
// schedules, so the choice is purely a resource/performance trade.
package exec
