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
}

// NewVM creates a VM tracing into tr with the given overhead model, on an
// executive with default options. A nil tr records into a fresh trace
// (this convenience constructor always yields a readable Trace); use
// NewVMSink with trace.Nop for the metrics-only fast path. The timer
// daemon thread is created immediately.
func NewVM(tr *trace.Trace, oh Overheads) *VM {
	if tr == nil {
		tr = trace.New()
	}
	return NewVMSink(tr, oh, exec.Options{})
}

// NewVMSink is the fully explicit constructor: the VM records into sink
// (nil or trace.Nop records nothing — the metrics-only fast path used by
// the execution tables) on an executive configured by opts.
func NewVMSink(sink trace.Sink, oh Overheads, opts exec.Options) *VM {
	vm := &VM{
		ex:      exec.NewWithOptions(sink, opts),
		oh:      oh,
		daemonQ: exec.NewWaitQueue("timerd"),
		sched:   NewPriorityScheduler(),
	}
	vm.ex.Spawn("timerd", TimerPriority, 0, vm.daemonBody)
	return vm
}

// Exec exposes the underlying executive.
func (vm *VM) Exec() *exec.Exec { return vm.ex }

// Overheads returns the VM's overhead model.
func (vm *VM) Overheads() Overheads { return vm.oh }

// Scheduler returns the VM's priority scheduler (feasibility set).
func (vm *VM) Scheduler() *PriorityScheduler { return vm.sched }

// Trace returns the execution trace (nil when the VM records into a
// non-accumulating sink, e.g. trace.Nop).
func (vm *VM) Trace() *trace.Trace { return vm.ex.Trace() }

// Now returns the current virtual time.
func (vm *VM) Now() rtime.Time { return vm.ex.Now() }

// Run advances the system until the horizon (or quiescence).
func (vm *VM) Run(until rtime.Time) error { return vm.ex.Run(until) }

// Shutdown unwinds all thread goroutines; call once per VM after Run.
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
