// Package rtsjvm emulates the Real-Time Specification for Java API surface
// the paper's framework is built on: realtime threads with periodic release
// parameters, asynchronous events and handlers, timers, interruptible timed
// sections, processing group parameters and a priority scheduler with a
// feasibility set.
//
// The emulation runs on the virtual-time executive (internal/exec) instead
// of a real RTSJ VM on a real-time kernel. The VM charges explicit,
// configurable overheads for the operations whose hidden costs drive the
// paper's measured results: timer firings (the paper notes the timers that
// fire asynchronous events are the real highest-priority tasks in the
// system), event releases, and server dispatching.
//
// # Constructors and executive configuration
//
// NewVM is the convenience constructor (default executive options,
// always-readable trace); NewVMSink is fully explicit — any trace.Sink
// (nil or trace.Nop for the metrics-only fast path) and any exec.Options,
// such as a virtual CPU count.
//
// # Periodic emulation modes
//
// A periodic realtime thread can be emulated two ways, with identical
// schedules (pinned by TestPeriodicModeDiffCorpus):
//
//   - Looping mode (NewRealtimeThread): the body loops "work;
//     WaitForNextPeriod()" and parks on a goroutine between releases —
//     the literal RTSJ programming model.
//   - Activation mode (NewActivationThread): the body is dispatched once
//     per release on the executive's activation path (exec.SpawnPeriodic)
//     and returning from the body is the release boundary; the thread owns
//     no goroutine between releases.
//
// Prefer activation mode when a workload carries many periodic entities:
// looping bodies pin one pool worker each for the whole run, while
// activations keep the goroutine count at the preemption depth.
// Overrun semantics match exactly: releases the body overran past are
// skipped and counted (RTC.Missed / exec.Thread.MissedActivations), the
// RTSJ's deadline-miss handling for the default no-miss-handler
// configuration.
package rtsjvm
