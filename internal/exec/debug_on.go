//go:build debugchecks

package exec

import (
	"fmt"
	"sort"
)

// debugChecks enables the per-dispatch ready-queue invariant verification.
// See debug_off.go for the default build.
const debugChecks = true

// checkReadyHeap verifies, on every dispatch, that the ready heap's index
// bookkeeping is consistent, that the heap property holds at every node,
// and that draining a copy yields a fully sorted dispatch order (the check
// that used to run as sort.SliceIsSorted on the hot path before it was
// gated behind the debugchecks build tag).
func (ex *Exec) checkReadyHeap() {
	h := &ex.readyQ
	for i, th := range h.a {
		if th.heapIdx != i {
			panic(fmt.Sprintf("exec: ready heap index corrupt: %s at %d has heapIdx %d",
				th.name, i, th.heapIdx))
		}
		if th.state != stateReady {
			panic(fmt.Sprintf("exec: non-ready thread %s (state %d) in ready heap", th.name, th.state))
		}
		if p := (i - 1) / 2; i > 0 && h.less(i, p) {
			panic(fmt.Sprintf("exec: ready heap property violated at %d (%s above %s)",
				i, h.a[p].name, th.name))
		}
	}
	// Full dispatch-order check: drain a copy of the heap by successive
	// pops (without touching the live heapIdx bookkeeping) and verify the
	// extraction order is totally sorted by (effPrio desc, readySeq asc).
	order := drainCopy(h)
	if !sort.SliceIsSorted(order, func(i, j int) bool {
		if pi, pj := order[i].effPrio(), order[j].effPrio(); pi != pj {
			return pi > pj
		}
		return order[i].readySeq < order[j].readySeq
	}) {
		panic("exec: ready heap pop order is not the sorted dispatch order")
	}
}

// drainCopy pops every thread off a copy of the heap array, using the same
// comparator but none of the index bookkeeping, and returns the pop order.
func drainCopy(h *readyHeap) []*Thread {
	a := make([]*Thread, len(h.a))
	copy(a, h.a)
	less := func(i, j int) bool {
		if pi, pj := a[i].effPrio(), a[j].effPrio(); pi != pj {
			return pi > pj
		}
		return a[i].readySeq < a[j].readySeq
	}
	var out []*Thread
	for n := len(a); n > 0; n = len(a) {
		out = append(out, a[0])
		a[0] = a[n-1]
		a = a[:n-1]
		n--
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < n && less(l, m) {
				m = l
			}
			if r < n && less(r, m) {
				m = r
			}
			if m == i {
				break
			}
			a[i], a[m] = a[m], a[i]
			i = m
		}
	}
	return out
}
