// Package exec is a deterministic virtual-time executive: it runs goroutines
// as preemptive fixed-priority threads over a simulated clock.
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
// Mechanics: thread bodies are goroutines, but exactly one runs at a time;
// code between kernel calls executes in zero virtual time, and virtual time
// only advances while a thread is inside Consume or the processor is idle.
//
// # The kernel
//
// The scheduling loop runs inline in whichever goroutine currently holds
// the virtual CPU (kernel_direct.go), so consecutive same-thread
// Consume/advance/sleep steps never leave the goroutine, and a real
// parked-goroutine handoff (mutex + condition variable, one futex wake per
// switch) happens only when a *different* thread must run. The ready
// queues and the timer queue are binary heaps. Use New for the defaults
// and NewWithOptions for full configuration.
//
// Determinism is checked two ways. The differential tests run every
// scenario on every configuration (goroutine-per-thread, pooled,
// activation, one-CPU SMP) and compare the schedules segment by segment
// against the goroutine-per-thread run; and that reference run must match
// a committed trace fingerprint (trace.Trace.Fingerprint), so a change to
// any schedule fails a test even when every configuration changes alike.
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
// With the thread context and the park condition variable embedded in
// Thread, and the pool queue reusing its array, the warm executive
// allocates nothing per release or per kernel call; the allocation tests
// in alloc_test.go pin that contract.
//
// # Trace recording
//
// The executive records into a trace.Sink. Passing *trace.Trace accumulates
// a full schedule recording; passing nil (or trace.Nop) records nothing —
// the metrics-only fast path used by the table experiments, which skips the
// per-slice segment append entirely.
//
// # Pooled workers
//
// Options.MaxGoroutines multiplexes
// thread bodies over a bounded pool of worker goroutines (pool.go) instead
// of dedicating one goroutine per thread, so a system with tens of
// thousands of mostly run-to-completion threads needs only a handful of
// OS-level goroutines. Scheduling decisions are identical in both modes.
//
// # Activation-driven periodic entities
//
// SpawnPeriodic expresses a periodic entity as an activation body dispatched
// once per release (activation.go) instead of a long-lived loop parked in a
// sleep between releases. The body returning is the release boundary:
// overruns skip (and count) missed releases, exactly like the RTSJ's
// WaitForNextPeriod without a miss handler. Between releases the entity
// owns no goroutine at all, which matters for periodic-heavy workloads:
// looping bodies pin one goroutine (or pool worker) per entity for the
// whole run, while activations hold the goroutine count at the pool size.
// Schedules are identical in both formulations.
//
// # Choosing a configuration
//
//   - Default (one goroutine per thread): small systems, simplest
//     debugging — every thread is a parked goroutine with a full stack.
//   - Pooled (Options.MaxGoroutines > 0): many mostly run-to-completion
//     threads (sporadic job floods); goroutine count bounded by preemption
//     depth.
//   - Pooled + SpawnPeriodic for periodic load: many long-running periodic
//     entities; removes the last per-entity goroutine.
//
// Every configuration is differential-tested to produce identical
// schedules, so the choice is purely a resource/performance trade.
package exec
