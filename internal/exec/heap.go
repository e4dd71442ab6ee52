package exec

// Binary heaps backing the executive's ready queue and timer queue. Both
// are keyed by total orders, so pop order is deterministic:
//
//   ready: (effective priority desc, readySeq asc) — FIFO within a
//          priority level by wake order; readySeq is unique, so the order
//          is total and deterministic.
//   timer: (instant asc, seq asc).
//
// The ready heap maintains Thread.heapIdx so membership tests, removal and
// re-keying (priority-inheritance boosts, FIFO re-queues) are O(log n)
// without searching. The timer heap uses lazy deletion: cancelled events
// stay in the heap and are dropped when they surface at the top
// (Exec.peekTimer).

type readyHeap struct{ a []*Thread }

func (h *readyHeap) less(i, j int) bool {
	ti, tj := h.a[i], h.a[j]
	pi, pj := ti.effPrio(), tj.effPrio()
	if pi != pj {
		return pi > pj
	}
	return ti.readySeq < tj.readySeq
}

func (h *readyHeap) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.a[i].heapIdx = i
	h.a[j].heapIdx = j
}

func (h *readyHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *readyHeap) down(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *readyHeap) push(th *Thread) {
	th.heapIdx = len(h.a)
	h.a = append(h.a, th)
	h.up(th.heapIdx)
}

func (h *readyHeap) peek() *Thread {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

func (h *readyHeap) pop() *Thread {
	top := h.a[0]
	h.removeAt(0)
	return top
}

// fix restores heap order after the key of the thread at index i changed
// (a priority boost floats it up; a fresh readySeq sinks it down).
func (h *readyHeap) fix(i int) {
	h.up(i)
	h.down(i)
}

func (h *readyHeap) remove(th *Thread) {
	if th.heapIdx >= 0 {
		h.removeAt(th.heapIdx)
	}
}

func (h *readyHeap) removeAt(i int) {
	n := len(h.a) - 1
	out := h.a[i]
	if i != n {
		h.swap(i, n)
	}
	h.a[n] = nil
	h.a = h.a[:n]
	out.heapIdx = -1
	if i < n {
		h.fix(i)
	}
}

// timerHeap holds its entries by value: the (instant, seq) key sits inline
// in the array, so sifting compares adjacent memory and never dereferences
// a node. A key is live while its seq still matches its node's (see
// timerNode).
type timerHeap struct{ a []timerKey }

func (h *timerHeap) less(i, j int) bool {
	if h.a[i].at != h.a[j].at {
		return h.a[i].at < h.a[j].at
	}
	return h.a[i].seq < h.a[j].seq
}

func (h *timerHeap) push(k timerKey) {
	h.a = append(h.a, k)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *timerHeap) pop() timerKey {
	n := len(h.a)
	top := h.a[0]
	h.a[0] = h.a[n-1]
	h.a[n-1] = timerKey{}
	h.a = h.a[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return top
}
