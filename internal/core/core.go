// Package core implements the paper's contribution: the Task Server
// Framework, an RTSJ extension for servicing aperiodic events with task
// servers.
//
// The framework's six classes map to:
//
//   - ServableAsyncEvent: an AsyncEvent subclass whose Fire also releases
//     servable handlers through their task server.
//   - ServableAsyncEventHandler: the code bound to a servable event. It is
//     not a Schedulable and owns no thread: it executes inside its unique
//     TaskServer.
//   - TaskServer: the abstract server — here an interface plus a shared
//     core (serverCore). It is schedulable (it is a periodic entity the
//     feasibility analysis can include) and it is a scheduler (it orders
//     its pending handlers).
//   - PollingTaskServer / DeferrableTaskServer: the two policies of
//     Section 4, with the exact implementation limitations the paper
//     describes (non-resumable handlers, admission on declared cost,
//     Timed-based capacity enforcement, budget extension across a DS
//     replenishment).
//   - TaskServerParameters: ReleaseParameters for constructing a server.
//
// Servers also implement the paper's Section 3 proposal: a
// getInterference hook (rtsjvm.InterferenceProvider) so the scheduler's
// feasibility analysis accounts for policy-specific interference (the
// Deferrable Server's back-to-back hit).
package core

import (
	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/trace"
)

// TaskServerParameters is the ReleaseParameters subclass used to construct
// a task server: a periodic release whose cost is the server capacity.
type TaskServerParameters struct {
	rtsjvm.PeriodicParameters
}

// NewTaskServerParameters builds server parameters: the server replenishes
// capacity every period, starting at start.
func NewTaskServerParameters(start rtime.Time, capacity, period rtime.Duration) *TaskServerParameters {
	if capacity <= 0 || period <= 0 || capacity > period {
		panic("core: server needs 0 < capacity <= period")
	}
	return &TaskServerParameters{
		PeriodicParameters: rtsjvm.PeriodicParameters{Start: start, Period: period, Cost: capacity},
	}
}

// Capacity returns the server capacity (the periodic cost budget).
func (p *TaskServerParameters) Capacity() rtime.Duration { return p.Cost }

// TaskServer is the abstract task server of the framework.
type TaskServer interface {
	rtsjvm.Schedulable
	rtsjvm.InterferenceProvider

	// ServableEventReleased hands a fired handler to the server. It is
	// called by ServableAsyncEvent.Fire in the firing context.
	ServableEventReleased(tc *exec.TC, h *ServableAsyncEventHandler)
	// Records returns one record per handler release, in release order.
	Records() []*EventRecord
	// Params returns the server's construction parameters.
	Params() *TaskServerParameters
	// PendingCount returns the number of queued releases.
	PendingCount() int
	// SetMaxPending bounds the pending queue for graceful degradation
	// under overload: releases arriving at a full queue are shed (see
	// EventRecord.Shed). Zero, the default, keeps the queue unbounded.
	SetMaxPending(n int)
	// ShedCount returns how many releases load shedding has dropped.
	ShedCount() int
	// SetClampCapacity makes the server clamp its capacity at zero after
	// every charge, for policies (the Deferrable Server's budget-extension
	// rule) whose capacity may otherwise transiently go negative.
	SetClampCapacity(on bool)
	// CapacityFloor returns the lowest capacity value observed after any
	// charge or replenishment (<= 0; a negative floor means the capacity
	// dipped below zero at some point).
	CapacityFloor() rtime.Duration
}

// EventRecord measures one servable-event release, the unit of the paper's
// evaluation metrics (response times, served ratio, interrupted ratio).
type EventRecord struct {
	// Handler names the handler the event was bound to.
	Handler string
	// Released is the instant the event fired.
	Released rtime.Time
	// Started is the instant the handler first ran for this release.
	Started rtime.Time
	// Finished is the instant the handler completed (served events only).
	Finished rtime.Time

	// Served is set when the handler ran to completion.
	Served bool
	// Interrupted is set when the handler was cut off by budget exhaustion.
	Interrupted bool
	// Rejected is set when on-line admission control cancelled the event
	// at its release: the predicted response time exceeded the event's
	// deadline (the cancellation Section 7 anticipates).
	Rejected bool
	// Shed is set when the server dropped the release at registration
	// because its pending queue was full (SetMaxPending): load shedding
	// under overload. A shed release is never queued or served.
	Shed bool
	// Predicted is the on-line response-time estimate of Section 7
	// (admission-queue servers only; 0 otherwise).
	Predicted rtime.Duration
}

// Response returns the measured response time of a served release.
func (r *EventRecord) Response() rtime.Duration {
	if !r.Served {
		return -1
	}
	return r.Finished.Sub(r.Released)
}

// ServableAsyncEventHandler embodies the code associated with a servable
// event. It is bound to a unique TaskServer; firing any event it is
// attached to appends it to that server's pending list.
type ServableAsyncEventHandler struct {
	name     string
	cost     rtime.Duration // declared cost (the admission parameter)
	actual   rtime.Duration // actual demand; defaults to the declared cost
	deadline rtime.Duration // relative deadline for admission control (0: none)
	logic    func(tc *exec.TC)
	server   TaskServer
}

// NewServableAsyncEventHandler binds a handler with the given declared cost
// to its (unique) server. By default the handler's logic consumes exactly
// the declared cost; SetActualCost and SetLogic override it — scenario 3 of
// the paper declares a cost below the actual demand.
func NewServableAsyncEventHandler(server TaskServer, name string, cost rtime.Duration) *ServableAsyncEventHandler {
	if cost <= 0 {
		panic("core: handler cost must be positive")
	}
	return &ServableAsyncEventHandler{name: name, cost: cost, actual: cost, server: server}
}

// Name returns the handler name.
func (h *ServableAsyncEventHandler) Name() string { return h.name }

// Cost returns the declared cost.
func (h *ServableAsyncEventHandler) Cost() rtime.Duration { return h.cost }

// ActualCost returns the handler's actual demand.
func (h *ServableAsyncEventHandler) ActualCost() rtime.Duration { return h.actual }

// Server returns the unique server the handler is bound to.
func (h *ServableAsyncEventHandler) Server() TaskServer { return h.server }

// SetActualCost sets the real demand, which may exceed the declared cost.
func (h *ServableAsyncEventHandler) SetActualCost(d rtime.Duration) *ServableAsyncEventHandler {
	h.actual = d
	return h
}

// SetLogic replaces the default logic (Consume(actual)). The logic runs in
// the server's thread, inside the Timed section.
func (h *ServableAsyncEventHandler) SetLogic(f func(tc *exec.TC)) *ServableAsyncEventHandler {
	h.logic = f
	return h
}

// SetDeadline sets a relative deadline used by on-line admission control:
// an admission-queue server whose response-time prediction at release
// exceeds it cancels the event immediately (recorded as Rejected).
func (h *ServableAsyncEventHandler) SetDeadline(d rtime.Duration) *ServableAsyncEventHandler {
	h.deadline = d
	return h
}

// Deadline returns the handler's admission deadline (0 when absent).
func (h *ServableAsyncEventHandler) Deadline() rtime.Duration { return h.deadline }

// run executes the handler's logic in the server context.
func (h *ServableAsyncEventHandler) run(tc *exec.TC) {
	if h.logic != nil {
		h.logic(tc)
		return
	}
	tc.Consume(h.actual)
}

// ServableAsyncEvent is the AsyncEvent subclass of the framework: firing it
// releases its standard handlers (inherited behaviour) and registers its
// servable handlers with their task servers.
type ServableAsyncEvent struct {
	*rtsjvm.AsyncEvent
	servable []*ServableAsyncEventHandler
}

// NewServableAsyncEvent creates a servable event.
func NewServableAsyncEvent(vm *rtsjvm.VM, name string) *ServableAsyncEvent {
	return &ServableAsyncEvent{AsyncEvent: vm.NewAsyncEvent(name)}
}

// AddServableHandler binds a servable handler — the overload of addHandler
// the paper introduces.
func (e *ServableAsyncEvent) AddServableHandler(h *ServableAsyncEventHandler) {
	e.servable = append(e.servable, h)
}

// ServableHandlers returns the bound servable handlers.
func (e *ServableAsyncEvent) ServableHandlers() []*ServableAsyncEventHandler {
	return e.servable
}

// Fire redefines AsyncEvent.fire: standard handlers are released as usual,
// then each servable handler is handed to its server.
func (e *ServableAsyncEvent) Fire(tc *exec.TC) {
	e.AsyncEvent.Fire(tc)
	for _, h := range e.servable {
		h.server.ServableEventReleased(tc, h)
	}
}

// release is one pending execution request for a handler. It carries its
// event record by value, so one allocation holds both; the server's
// records list points into it.
type release struct {
	h   *ServableAsyncEventHandler
	rec EventRecord
}

// serverCore is the state shared by the server policies.
type serverCore struct {
	vm      *rtsjvm.VM
	name    string
	prio    int
	params  *TaskServerParameters
	pending []*release
	records []*EventRecord

	capacity rtime.Duration

	// Overload-degradation state: the pending bound (0 = unbounded), the
	// shed count, the clamp-at-zero flag and the lowest capacity value
	// ever observed (the "capacity never negative" invariant input).
	maxPending int
	shed       int
	clamp      bool
	capFloor   rtime.Duration
}

func newServerCore(vm *rtsjvm.VM, name string, prio int, params *TaskServerParameters) serverCore {
	return serverCore{vm: vm, name: name, prio: prio, params: params}
}

// SchedulableName implements rtsjvm.Schedulable.
func (s *serverCore) SchedulableName() string { return s.name }

// SchedulablePriority implements rtsjvm.Schedulable.
func (s *serverCore) SchedulablePriority() int { return s.prio }

// SchedulableRelease implements rtsjvm.Schedulable: the server is a
// periodic entity, so addToFeasibility works on it (Section 3).
func (s *serverCore) SchedulableRelease() rtsjvm.ReleaseParameters {
	return &s.params.PeriodicParameters
}

// Params implements TaskServer.
func (s *serverCore) Params() *TaskServerParameters { return s.params }

// Records implements TaskServer.
func (s *serverCore) Records() []*EventRecord { return s.records }

// Capacity returns the remaining capacity (for inspection/tests).
func (s *serverCore) Capacity() rtime.Duration { return s.capacity }

// SetMaxPending implements TaskServer.
func (s *serverCore) SetMaxPending(n int) { s.maxPending = n }

// ShedCount implements TaskServer.
func (s *serverCore) ShedCount() int { return s.shed }

// SetClampCapacity implements TaskServer.
func (s *serverCore) SetClampCapacity(on bool) { s.clamp = on }

// CapacityFloor implements TaskServer.
func (s *serverCore) CapacityFloor() rtime.Duration { return s.capFloor }

// chargeCapacity subtracts a service charge from the capacity, applying
// the clamp-at-zero policy if enabled, and tracks the capacity floor.
func (s *serverCore) chargeCapacity(elapsed rtime.Duration) {
	s.capacity -= elapsed
	s.noteCapacity()
	if s.clamp && s.capacity < 0 {
		s.capacity = 0
	}
}

// noteCapacity records the capacity low-water mark. Call after every
// capacity mutation, before any clamping, so CapacityFloor reports
// excursions below zero even when the clamp hides them.
func (s *serverCore) noteCapacity() {
	if s.capacity < s.capFloor {
		s.capFloor = s.capacity
	}
}

// register appends a fired handler to the pending list (FIFO), recording
// its release, and charges the release overhead to the firing context.
// When the pending queue is at its bound (SetMaxPending), the release is
// shed instead: recorded (with Shed set, and a shed trace mark) but never
// queued — register returns nil and the caller must not wake the server
// for it.
func (s *serverCore) register(tc *exec.TC, h *ServableAsyncEventHandler) *release {
	// The release instant is the fire instant: the registration overhead
	// charged below is part of the event's measured response time (the
	// paper's simulations ignore "the costs of the events' release"; its
	// executions pay them).
	rel := &release{h: h, rec: EventRecord{Handler: h.name, Released: tc.Now()}}
	if oh := s.vm.Overheads().EventRelease; oh > 0 {
		tc.Consume(oh)
	}
	s.records = append(s.records, &rel.rec)
	if s.maxPending > 0 && len(s.pending) >= s.maxPending {
		rel.rec.Shed = true
		s.shed++
		s.vm.Exec().Sink().Mark(s.name, tc.Now(), trace.Shed, h.name)
		return nil
	}
	s.pending = append(s.pending, rel)
	return rel
}

// firstFitting returns the first pending release whose declared cost fits
// the budget granted by fit — the paper's chooseNextEvent (which may serve
// a later, smaller event before an earlier, larger one).
func (s *serverCore) firstFitting(fit func(h *ServableAsyncEventHandler) rtime.Duration) *release {
	for _, rel := range s.pending {
		if rel.h.cost <= fit(rel.h) {
			return rel
		}
	}
	return nil
}

// removePending drops a release from the pending list.
func (s *serverCore) removePending(rel *release) {
	for i, x := range s.pending {
		if x == rel {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// PendingCount returns the number of queued releases.
func (s *serverCore) PendingCount() int { return len(s.pending) }

// serve executes one release under a Timed budget in the server's thread
// context, measures the elapsed (virtual wall-clock) time, and records the
// outcome. It returns the elapsed time so the caller can charge capacity.
func (s *serverCore) serve(tc *exec.TC, rel *release, budget rtime.Duration) rtime.Duration {
	rel.rec.Started = tc.Now()
	tc.SetLabel(rel.h.name)
	timed := s.vm.NewTimed(budget)
	completed, elapsed := timed.DoInterruptible(tc, rtsjvm.Interruptible{
		Run: rel.h.run,
	})
	tc.SetLabel("")
	s.removePending(rel)
	if completed {
		rel.rec.Served = true
		rel.rec.Finished = tc.Now()
	} else {
		rel.rec.Interrupted = true
		rel.rec.Finished = tc.Now()
	}
	return elapsed
}
