package core

import (
	"rtsj/internal/rtime"
)

// AdmissionQueue is the Section 7 improvement of the paper: instead of a
// flat FIFO pending list, handlers are grouped into a list of lists, each
// inner list holding only handlers servable within a single server
// instance, alongside the running total of their declared costs. The
// position of a newly registered handler then yields its response time in
// constant time (equation (5)):
//
//	Ra = (Ia*Ts + Cpa + Ca) - ra
//
// where Ia is the server instance that will run the handler, Cpa the
// cumulated declared cost of the handlers placed before it in the same
// instance, and Ca its own declared cost.
//
// As the paper notes, the structure makes registration slightly more
// expensive in exchange for constant-time prediction (and the possibility
// of cancelling an event whose predicted response time is unacceptable) —
// BenchmarkAdmission* quantifies the trade.
type AdmissionQueue struct {
	start rtime.Time
	cs    rtime.Duration
	ts    rtime.Duration

	firstInst  int64 // absolute instance index that serves lists[0]
	lastSync   int64 // most recent activation index seen
	closed     bool  // the server suspended after activation closedInst
	closedInst int64
	lists      [][]*release
	costs      []rtime.Duration // total declared cost placed per list
}

// NewAdmissionQueue builds the structure for a server with the given
// activation start, capacity and period.
func NewAdmissionQueue(cs, ts rtime.Duration) *AdmissionQueue {
	return &AdmissionQueue{cs: cs, ts: ts}
}

// Unservable marks a prediction for a handler that can never be served
// (declared cost above the full server capacity).
const Unservable rtime.Duration = -1

func (q *AdmissionQueue) inst(now rtime.Time) int64 {
	return rtime.DivFloor(now.Sub(q.start), q.ts)
}

// Register places a release and returns its predicted response time, or
// Unservable when the declared cost exceeds the server capacity.
func (q *AdmissionQueue) Register(now rtime.Time, rel *release) rtime.Duration {
	ca := rel.h.cost
	if ca > q.cs {
		return Unservable
	}
	if len(q.lists) == 0 {
		// First pending event: it will be handled in the activation that
		// contains now — unless the server already gave up on it, in
		// which case the next one.
		c := q.inst(now)
		if q.closed && c <= q.closedInst {
			c = q.closedInst + 1
		}
		q.firstInst = c
	}
	idx := len(q.lists) - 1
	if idx >= 0 && q.costs[idx]+ca <= q.cs {
		q.lists[idx] = append(q.lists[idx], rel)
	} else {
		q.lists = append(q.lists, []*release{rel})
		q.costs = append(q.costs, 0)
		idx++
	}
	cpa := q.costs[idx]
	q.costs[idx] += ca
	ia := q.firstInst + int64(idx)
	finish := q.start.Add(rtime.Duration(ia)*q.ts + cpa + ca)
	return finish.Sub(now)
}

// RegisterCost registers a synthetic release of the given declared cost and
// returns its predicted response time. It exists for benchmarks and
// admission-control front-ends that probe the queue without a full handler.
func (q *AdmissionQueue) RegisterCost(now rtime.Time, cost rtime.Duration) rtime.Duration {
	h := &ServableAsyncEventHandler{name: "probe", cost: cost, actual: cost}
	return q.Register(now, &release{h: h, rec: EventRecord{Handler: h.name}})
}

// SyncInstance informs the queue that the server's activation number k
// begins now.
func (q *AdmissionQueue) SyncInstance(k int64) {
	q.lastSync = k
	q.closed = false
	q.popEmptyLeading()
	if len(q.lists) == 0 || q.firstInst < k {
		q.firstInst = k
	}
}

// Closed informs the queue that the server suspended until its next
// activation (chooseNextEvent returned null). Any backlog left (a head too
// large for the remaining capacity) shifts to the next activation.
func (q *AdmissionQueue) Closed() {
	q.closed = true
	q.closedInst = q.lastSync
	if len(q.lists) > 0 && q.firstInst <= q.closedInst {
		q.firstInst = q.closedInst + 1
	}
}

func (q *AdmissionQueue) popEmptyLeading() {
	for len(q.lists) > 0 && len(q.lists[0]) == 0 {
		q.lists = q.lists[1:]
		q.costs = q.costs[1:]
		q.firstInst++
	}
}

// Head returns the next release to serve under the remaining capacity:
// strictly the head of the current inner list (the structure preserves
// placement order, unlike the flat FIFO's first-fit scan).
func (q *AdmissionQueue) Head(remaining rtime.Duration) *release {
	q.popEmptyLeading()
	if len(q.lists) == 0 {
		return nil
	}
	head := q.lists[0][0]
	if head.h.cost <= remaining {
		return head
	}
	return nil
}

// Remove drops a release (after service or interruption). The consumed
// space in its list stays claimed, keeping the remaining predictions valid.
func (q *AdmissionQueue) Remove(rel *release) {
	for li, l := range q.lists {
		for i, x := range l {
			if x == rel {
				q.lists[li] = append(l[:i], l[i+1:]...)
				return
			}
		}
	}
}

// Cancel withdraws a release before service (on-line admission rejection).
// If the release is the most recent registration (the tail of the last
// list), its claimed cost is returned to the list so later registrations
// reuse the slot exactly; otherwise the claim is kept, which keeps the
// predictions of already-registered later events valid (conservative).
func (q *AdmissionQueue) Cancel(rel *release) {
	last := len(q.lists) - 1
	if last >= 0 {
		l := q.lists[last]
		if len(l) > 0 && l[len(l)-1] == rel {
			q.lists[last] = l[:len(l)-1]
			q.costs[last] -= rel.h.cost
			if len(q.lists[last]) == 0 && q.costs[last] == 0 {
				q.lists = q.lists[:last]
				q.costs = q.costs[:last]
			}
			return
		}
	}
	q.Remove(rel)
}

// Len returns the number of queued releases.
func (q *AdmissionQueue) Len() int {
	n := 0
	for _, l := range q.lists {
		n += len(l)
	}
	return n
}

// Depth returns the number of inner lists (pending server instances).
func (q *AdmissionQueue) Depth() int { return len(q.lists) }
