package rtsjvm

import (
	"rtsj/internal/exec"
	"rtsj/internal/rtime"
)

// OneShotTimer mirrors javax.realtime.OneShotTimer: it fires an event once
// at an absolute instant, through the timer daemon (which charges the
// timer-fire overhead at the highest priority).
type OneShotTimer struct {
	vm      *VM
	at      rtime.Time
	target  Firable
	label   string
	timer   exec.Timer
	armed   bool
	started bool
}

// NewOneShotTimer creates a timer firing target at instant at. The label
// annotates the timer daemon's trace segments. Call Start to arm it.
func (vm *VM) NewOneShotTimer(at rtime.Time, target Firable, label string) *OneShotTimer {
	return &OneShotTimer{vm: vm, at: at, target: target, label: label}
}

// Start arms the timer.
func (t *OneShotTimer) Start() {
	if t.started {
		return
	}
	t.started = true
	t.timer = t.vm.FireAt(t.at, t.target, t.label)
	t.armed = true
}

// Stop disarms the timer; returns false if it was not armed.
func (t *OneShotTimer) Stop() bool {
	if !t.armed {
		return false
	}
	t.timer.Cancel()
	t.armed = false
	return true
}

// PeriodicTimer mirrors javax.realtime.PeriodicTimer: it fires an event at
// start and then every interval, through the timer daemon.
type PeriodicTimer struct {
	vm       *VM
	start    rtime.Time
	interval rtime.Duration
	target   Firable
	label    string
	stopped  bool
	started  bool
	timer    exec.Timer
	next     rtime.Time // the instant the armed firing is due
	fire     func()     // onFire, bound once so re-arming allocates nothing
}

// NewPeriodicTimer creates a periodic timer. Call Start to arm it.
func (vm *VM) NewPeriodicTimer(start rtime.Time, interval rtime.Duration, target Firable, label string) *PeriodicTimer {
	if interval <= 0 {
		panic("rtsjvm: periodic timer interval must be positive")
	}
	return &PeriodicTimer{vm: vm, start: start, interval: interval, target: target, label: label}
}

// Start arms the timer.
func (t *PeriodicTimer) Start() {
	if t.started {
		return
	}
	t.started = true
	t.fire = t.onFire
	t.arm(t.start)
}

func (t *PeriodicTimer) arm(at rtime.Time) {
	t.next = at
	t.timer = t.vm.ex.At(at, t.fire)
}

// onFire hands one firing to the timer daemon and arms the next.
func (t *PeriodicTimer) onFire() {
	if t.stopped {
		return
	}
	t.vm.enqueueFire(t.target, t.label)
	t.arm(t.next.Add(t.interval))
}

// Stop disarms the timer permanently.
func (t *PeriodicTimer) Stop() {
	t.stopped = true
	t.timer.Cancel()
}
