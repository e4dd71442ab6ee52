package exec

import "fmt"

// Mutex is a virtual-time mutual exclusion lock with optional priority
// inheritance, the protocol RTSJ mandates by default for synchronized
// monitors (MonitorControl = PriorityInheritance). Waiters are granted the
// lock in priority order (FIFO within a priority), and while a thread holds
// a contended lock its effective priority is raised to the highest waiting
// priority — transitively across chains of locks — bounding priority
// inversion.
type Mutex struct {
	name    string
	inherit bool
	owner   *Thread
	waiters []*Thread
}

// NewMutex creates a priority-inheritance mutex.
func NewMutex(name string) *Mutex { return &Mutex{name: name, inherit: true} }

// NewMutexNoInherit creates a mutex *without* priority inheritance, to
// reproduce unbounded priority inversion (see the pathfinder example).
func NewMutexNoInherit(name string) *Mutex { return &Mutex{name: name} }

// Owner returns the current holder (nil when free).
func (m *Mutex) Owner() *Thread { return m.owner }

// effPrio is a thread's scheduling priority including inheritance.
func (th *Thread) effPrio() int {
	if th.boost > th.prio {
		return th.boost
	}
	return th.prio
}

// recomputeBoost recalculates a thread's inherited boost from the waiters
// of every contended lock it holds, and propagates the change up the chain
// of locks the thread itself may be blocked on. A boost change re-keys the
// thread in its ready heap.
func recomputeBoost(th *Thread) {
	boost := th.prio
	for _, m := range th.held {
		if !m.inherit {
			continue
		}
		for _, w := range m.waiters {
			if p := w.effPrio(); p > boost {
				boost = p
			}
		}
	}
	if boost == th.boost {
		return
	}
	th.boost = boost
	if th.heapIdx >= 0 {
		th.ex.readyQ.fix(th.heapIdx)
	}
	if th.waitingOn != nil && th.waitingOn.owner != nil {
		recomputeBoost(th.waitingOn.owner)
	}
}

// Lock acquires m, blocking in priority order while it is held elsewhere.
func (tc *TC) Lock(m *Mutex) {
	th := tc.th
	if m.owner == th {
		panic(fmt.Sprintf("exec: recursive lock of %s by %s", m.name, th.name))
	}
	if m.owner == nil {
		m.owner = th
		th.held = append(th.held, m)
		return
	}
	m.waiters = append(m.waiters, th)
	th.waitingOn = m
	if m.inherit {
		recomputeBoost(m.owner)
	}
	// Suspend until Unlock hands us the lock.
	th.ex.block(th, nil)
	tc.reschedule()
	th.waitingOn = nil
}

// Unlock releases m, handing it to the highest-priority waiter (FIFO within
// a priority level).
func (tc *TC) Unlock(m *Mutex) {
	th := tc.th
	if m.owner != th {
		panic(fmt.Sprintf("exec: %s unlocks %s held by someone else", th.name, m.name))
	}
	for i, h := range th.held {
		if h == m {
			th.held = append(th.held[:i], th.held[i+1:]...)
			break
		}
	}
	if m.inherit {
		recomputeBoost(th) // drop the boost this lock conferred
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	best := 0
	for i, w := range m.waiters {
		if w.effPrio() > m.waiters[best].effPrio() {
			best = i
		}
	}
	next := m.waiters[best]
	m.waiters = append(m.waiters[:best], m.waiters[best+1:]...)
	m.owner = next
	next.held = append(next.held, m)
	if m.inherit {
		recomputeBoost(next)
	}
	th.ex.makeReady(next)
}

// WithLock runs fn holding m.
func (tc *TC) WithLock(m *Mutex, fn func()) {
	tc.Lock(m)
	defer tc.Unlock(m)
	fn()
}
