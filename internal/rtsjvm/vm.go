package rtsjvm

import (
	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Priority levels. Application priorities live in [MinPriority,
// MaxPriority]; the timer daemon runs above all of them, as the paper
// observes of the RTSJ reference implementation.
const (
	MinPriority   = 1
	MaxPriority   = 99
	TimerPriority = 1000
)

// Overheads configures the virtual cost of VM-internal operations. The
// zero value is a cost-free VM (what the paper's simulator assumes); the
// table-reproduction harness uses non-zero values to model the execution
// platform.
type Overheads struct {
	// TimerFire is consumed by the timer daemon, at TimerPriority, for
	// every timer-driven event firing.
	TimerFire rtime.Duration
	// EventRelease is consumed in the firing context for each handler
	// released by AsyncEvent.Fire (the "cost of the events' release").
	EventRelease rtime.Duration
	// Dispatch is consumed by a task server for each chooseNextEvent scan.
	Dispatch rtime.Duration
	// Interrupt is consumed by a thread whose Timed section was
	// asynchronously interrupted (exception unwind cost).
	Interrupt rtime.Duration
}

// Firable is anything a timer can fire: AsyncEvent and its subclasses.
type Firable interface {
	// Fire releases the bound handlers. It runs in the firing thread's
	// context (usually the timer daemon).
	Fire(tc *exec.TC)
}

// FirableFunc adapts a function to the Firable interface.
type FirableFunc func(tc *exec.TC)

// Fire implements Firable.
func (f FirableFunc) Fire(tc *exec.TC) { f(tc) }

type pendingFire struct {
	target Firable
	label  string
}

// VM is an emulated RTSJ virtual machine instance.
type VM struct {
	ex      *exec.Exec
	oh      Overheads
	daemonQ *exec.WaitQueue
	pending []pendingFire // firings queued for the daemon; pending[head:] are unserved
	head    int
	sched   *PriorityScheduler
	daemon  func(tc *exec.TC) // daemonBody, bound once so Reset re-spawns it for free
}

// NewVM creates a VM recording into tr, with the given overhead model, on
// an executive configured by opts. A nil tr records nothing — the
// metrics-only fast path used by the execution tables. The timer daemon
// thread is created immediately.
func NewVM(tr *trace.Trace, oh Overheads, opts exec.Options) *VM {
	vm := &VM{
		ex:      exec.NewWithOptions(tr, opts),
		oh:      oh,
		daemonQ: exec.NewWaitQueue("timerd"),
		sched:   NewPriorityScheduler(),
	}
	vm.daemon = vm.daemonBody
	vm.ex.Spawn("timerd", TimerPriority, 0, vm.daemon)
	return vm
}

// Reset returns the VM to the state NewVM(tr, oh, opts) builds, on the
// same executive: exec.Exec.Reset unwinds the previous run's bodies and
// keeps its storage, the daemon's firing queue and wait queue are emptied
// in place, the feasibility set is emptied and the timer daemon is
// spawned again. A run after Reset gives the schedule the same setup gives
// on a fresh VM. Objects made on the VM before Reset (events, handlers,
// timers, threads) belong to the previous run and must not be used; see
// exec.Exec.Reset for the two hazards of stale Timer and Thread handles.
// Shutdown stops the resident workers once the VM is dropped.
func (vm *VM) Reset(tr *trace.Trace, oh Overheads, opts exec.Options) {
	vm.ex.Reset(tr, opts)
	vm.oh = oh
	clear(vm.pending)
	vm.pending, vm.head = vm.pending[:0], 0
	vm.sched.set = nil
	vm.ex.Spawn("timerd", TimerPriority, 0, vm.daemon)
}

// Exec exposes the underlying executive.
func (vm *VM) Exec() *exec.Exec { return vm.ex }

// Overheads returns the VM's overhead model.
func (vm *VM) Overheads() Overheads { return vm.oh }

// Scheduler returns the VM's priority scheduler (feasibility set).
func (vm *VM) Scheduler() *PriorityScheduler { return vm.sched }

// Trace returns the execution trace (nil when the VM records nothing).
func (vm *VM) Trace() *trace.Trace { return vm.ex.Trace() }

// Now returns the current virtual time.
func (vm *VM) Now() rtime.Time { return vm.ex.Now() }

// Run advances the system until the horizon (or quiescence).
func (vm *VM) Run(until rtime.Time) error { return vm.ex.Run(until) }

// Shutdown unwinds all thread goroutines and stops the executive's
// workers; call once per VM, after its last Run.
func (vm *VM) Shutdown() { vm.ex.Shutdown() }

// daemonBody is the timer daemon: it pops due firings scheduled by
// enqueueFire, charges the timer-fire overhead and fires the target. It is
// the highest-priority thread in the system — exactly the situation the
// paper describes ("there is also more highest priority tasks: the timers
// charged to fire the asynchronous events").
func (vm *VM) daemonBody(tc *exec.TC) {
	for {
		for vm.head == len(vm.pending) {
			tc.Wait(vm.daemonQ)
		}
		p := vm.pending[vm.head]
		vm.pending[vm.head] = pendingFire{}
		vm.head++
		if vm.head == len(vm.pending) {
			// Drained: rewind so enqueueFire reuses the backing array.
			vm.pending = vm.pending[:0]
			vm.head = 0
		}
		tc.SetLabel(p.label)
		if vm.oh.TimerFire > 0 {
			tc.Consume(vm.oh.TimerFire)
		}
		p.target.Fire(tc)
		tc.SetLabel("")
	}
}

// enqueueFire hands a firing to the timer daemon. Safe from kernel timer
// functions and thread bodies.
func (vm *VM) enqueueFire(target Firable, label string) {
	vm.pending = append(vm.pending, pendingFire{target: target, label: label})
	vm.ex.NotifyAll(vm.daemonQ)
}

// FireAt schedules target to be fired by the timer daemon at instant at.
// The returned handle cancels the firing. This is the primitive
// OneShotTimer is built on.
func (vm *VM) FireAt(at rtime.Time, target Firable, label string) exec.Timer {
	return vm.ex.At(at, func() { vm.enqueueFire(target, label) })
}
