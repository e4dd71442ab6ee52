package exec

import "rtsj/internal/rtime"

// Timer representation.
//
// A timer is a node plus a key. The node (timerNode) says what fires: a
// typed kernel event — a kind and the thread it acts on — or, for At, the
// caller's function. The key (timerKey) is the value the queues order by,
// (instant, seq), carried inline next to a pointer to its node, so the
// timer heap compares keys without dereferencing anything.
//
// seq comes from the executive's single sequence counter (nextSeq), the
// same counter that ranks the ready queue's FIFO order, so arming a timer
// consumes exactly one sequence number whatever its kind — the timer and
// ready orders, and with them every schedule, do not depend on how a
// timer is represented.
//
// Cancellation is by handle. A node records the seq of the timer it
// currently holds; a key or Timer handle is live only while its seq still
// matches. Cancel zeroes the node's seq, which kills both the queued key
// (lazy deletion: it is dropped when it surfaces) and every outstanding
// handle. Nodes come from a per-executive free list that, like all other
// kernel state, only the scheduling-token owner touches; a node returns
// to it only after its key has left the queue (fired or dropped), so a
// stale handle to a recycled node carries an older seq and cancels
// nothing.

// timerKind selects what a timer does when it fires (see Exec.fire).
type timerKind uint8

const (
	// evFunc runs the function passed to At.
	evFunc timerKind = iota
	// evRelease makes a spawned thread ready at its first release.
	evRelease
	// evWake ends a sleep: the thread becomes ready if it is still
	// sleeping. SleepUntil arms it, and so does an activation entity's
	// rearm — its next release is the same sleep request.
	evWake
	// evBudget expires a WithBudget section: the thread's in-progress (or
	// next) Consume is interrupted.
	evBudget
)

// timerNode is the mutable half of a timer, recycled through the
// executive's free list.
type timerNode struct {
	seq  int64 // seq of the timer the node holds; 0 when fired, cancelled or free
	kind timerKind
	th   *Thread // the thread a kernel event acts on (nil for evFunc)
	fn   func()  // the At callback (evFunc only)
	next *timerNode
}

// timerKey is a queue entry: the ordering key by value, plus its node.
type timerKey struct {
	at   rtime.Time
	seq  int64
	node *timerNode
}

// live reports whether the key's timer is still armed.
func (k timerKey) live() bool { return k.node.seq == k.seq }

// Timer is a handle to a timer armed with At (or rtsjvm.VM.FireAt). It is
// a small value; copying it is free. The zero Timer cancels nothing.
type Timer struct {
	node *timerNode
	seq  int64
}

// Cancel disarms the timer if it has not fired yet. Cancelling a timer
// that already fired or was already cancelled is a no-op, even when its
// storage has since been reused by a newer timer. Like At, call it from
// thread bodies, kernel timer functions or setup code.
func (t Timer) Cancel() {
	if t.node != nil && t.node.seq == t.seq {
		t.node.seq = 0
	}
}

// Node chunks: the first holds timerFirstChunk nodes; each later one as
// many as are already allocated, at most timerChunk.
const (
	timerFirstChunk = 32
	timerChunk      = 256
)

// At schedules fn to run in kernel context at instant at (clamped to now).
// Kernel functions must be tiny (wake a thread, set a flag); anything that
// costs CPU must be modeled as a thread. The returned handle cancels the
// timer. Safe to call before Run and from thread bodies.
func (ex *Exec) At(at rtime.Time, fn func()) Timer { return ex.arm(at, evFunc, nil, fn) }

// arm queues a timer of the given kind at instant at (clamped to now) and
// returns its handle.
func (ex *Exec) arm(at rtime.Time, kind timerKind, th *Thread, fn func()) Timer {
	if at < ex.now {
		at = ex.now
	}
	if ex.freeTimers == nil {
		ex.growTimers()
	}
	n := ex.freeTimers
	ex.freeTimers = n.next
	n.next = nil
	n.seq = ex.nextSeq()
	n.kind = kind
	n.th = th
	n.fn = fn
	ex.theap.push(timerKey{at: at, seq: n.seq, node: n})
	if ex.statsOn {
		ex.stats.TimerHeapMax.Max(int64(len(ex.theap.a)))
	}
	return Timer{node: n, seq: n.seq}
}

// growTimers refills the empty free list with a chunk of fresh nodes (see
// chunkSize), so a large executive allocates its nodes in a few blocks and
// a small one in one. The first growth also sizes the timer heap to that
// chunk, since the heap never holds more keys than there are nodes.
func (ex *Exec) growTimers() {
	size := chunkSize(ex.timerNodes, timerFirstChunk)
	if ex.timerNodes == 0 {
		ex.theap.a = make([]timerKey, 0, size)
	}
	ex.timerNodes += size
	chunk := make([]timerNode, size)
	for i := range chunk[:size-1] {
		chunk[i].next = &chunk[i+1]
	}
	ex.freeTimers = &chunk[0]
}

// chunkSize is the growth policy of the executive's chunked allocations:
// first elements at first, then as many as are already allocated, at most
// timerChunk.
func chunkSize(allocated, first int) int {
	if allocated == 0 {
		return first
	}
	return min(allocated, timerChunk)
}

// freeTimer returns a node whose key has left the queue to the free list.
func (ex *Exec) freeTimer(n *timerNode) {
	n.seq = 0
	n.th = nil
	n.fn = nil
	n.next = ex.freeTimers
	ex.freeTimers = n
}

// fire runs one due timer in kernel context.
func (ex *Exec) fire(n *timerNode) {
	switch n.kind {
	case evRelease:
		ex.makeReady(n.th)
	case evWake:
		if n.th.state == stateSleeping {
			ex.makeReady(n.th)
		}
	case evBudget:
		ex.interruptNow(n.th)
	default:
		n.fn()
	}
}

// peekTimer returns the earliest live key of the timer heap, dropping and
// recycling cancelled keys that have surfaced at the top.
func (ex *Exec) peekTimer() (timerKey, bool) {
	for len(ex.theap.a) > 0 {
		if k := ex.theap.a[0]; k.live() {
			return k, true
		}
		ex.freeTimer(ex.theap.pop().node)
	}
	return timerKey{}, false
}
