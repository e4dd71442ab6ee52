package core

import (
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
)

func mkRelease(cost float64) *release {
	h := &ServableAsyncEventHandler{name: "h", cost: tu(cost), actual: tu(cost)}
	return &release{h: h, rec: EventRecord{Handler: "h"}}
}

func TestAdmissionPlacement(t *testing.T) {
	q := NewAdmissionQueue(tu(4), tu(6))
	// Three events of cost 3: each occupies its own inner list (3+3 > 4).
	r1 := q.Register(0, mkRelease(3))
	r2 := q.Register(0, mkRelease(3))
	r3 := q.Register(0, mkRelease(3))
	if q.Depth() != 3 || q.Len() != 3 {
		t.Fatalf("depth=%d len=%d", q.Depth(), q.Len())
	}
	// Instance 0 at t=0: R = 0*6+3, 1*6+3, 2*6+3.
	for i, want := range []float64{3, 9, 15} {
		got := []rtime.Duration{r1, r2, r3}[i]
		if got != tu(want) {
			t.Errorf("prediction %d = %v, want %v", i, got.TUs(), want)
		}
	}
}

func TestAdmissionPacksSmallEvents(t *testing.T) {
	q := NewAdmissionQueue(tu(4), tu(6))
	r1 := q.Register(0, mkRelease(2))
	r2 := q.Register(0, mkRelease(2)) // fits the same instance
	r3 := q.Register(0, mkRelease(2)) // overflows to the next
	if q.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", q.Depth())
	}
	if r1 != tu(2) || r2 != tu(4) || r3 != tu(8) {
		t.Errorf("predictions: %v %v %v", r1.TUs(), r2.TUs(), r3.TUs())
	}
}

func TestAdmissionUnservable(t *testing.T) {
	q := NewAdmissionQueue(tu(4), tu(6))
	if got := q.Register(0, mkRelease(5)); got != Unservable {
		t.Fatalf("oversized prediction = %v", got)
	}
	if q.Len() != 0 {
		t.Fatal("oversized release must not be queued (it would wedge the head)")
	}
}

func TestAdmissionClosedInstanceShiftsToNext(t *testing.T) {
	q := NewAdmissionQueue(tu(4), tu(6))
	q.SyncInstance(0)
	q.Closed() // the server suspended during instance 0
	// An arrival at t=2 is served at the next activation (t=6).
	r := q.Register(rtime.AtTU(2), mkRelease(3))
	if r != tu(7) { // 6 + 3 - 2
		t.Fatalf("prediction = %v, want 7", r.TUs())
	}
}

func TestAdmissionHeadRespectsOrder(t *testing.T) {
	q := NewAdmissionQueue(tu(4), tu(6))
	relA := mkRelease(3)
	relB := mkRelease(1)
	q.Register(0, relA)
	q.Register(0, relB) // same list: 3+1 = 4
	if got := q.Head(tu(4)); got != relA {
		t.Fatalf("head = %v, want A", got)
	}
	q.Remove(relA)
	if got := q.Head(tu(1)); got != relB {
		t.Fatalf("head after remove = %v, want B", got)
	}
	// Unlike the FIFO first-fit, the structure never serves out of order:
	// a head that does not fit blocks the queue.
	relC := mkRelease(3)
	relD := mkRelease(1)
	q2 := NewAdmissionQueue(tu(4), tu(6))
	q2.Register(0, relC)
	q2.Register(0, relD)
	if got := q2.Head(tu(2)); got != nil {
		t.Fatalf("head with budget 2 = %v, want nil (C blocks)", got)
	}
}

func TestAdmissionSyncPopsServedLists(t *testing.T) {
	q := NewAdmissionQueue(tu(4), tu(6))
	relA := mkRelease(3)
	q.Register(0, relA)
	relB := mkRelease(3)
	q.Register(0, relB)
	q.SyncInstance(0)
	q.Remove(relA)
	q.SyncInstance(1)
	if got := q.Head(tu(4)); got != relB {
		t.Fatalf("head = %v, want B", got)
	}
	if q.Depth() != 1 {
		t.Fatalf("depth = %d", q.Depth())
	}
}

// End to end: with a cost-free platform, the predictions recorded at
// registration match the measured response times exactly (the Section 7
// design goal).
func TestAdmissionPredictionsExact(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(4), tu(6))).
		UseAdmissionQueue()
	costs := []float64{2, 1.5, 3, 0.5, 2.5, 4, 1}
	for i, c := range costs {
		h := NewServableAsyncEventHandler(srv, "h"+string(rune('1'+i)), tu(c))
		e := NewServableAsyncEvent(vm, h.Name())
		e.AddServableHandler(h)
		vm.NewOneShotTimer(rtime.AtTU(float64(i)*1.3), e, h.Name()).Start()
	}
	if err := vm.Run(rtime.AtTU(60)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	for _, rec := range srv.Records() {
		if !rec.Served {
			t.Errorf("%s unserved", rec.Handler)
			continue
		}
		if rec.Predicted != rec.Response() {
			t.Errorf("%s: predicted %v, measured %v",
				rec.Handler, rec.Predicted.TUs(), rec.Response().TUs())
		}
	}
}

// On-line admission control: events whose predicted response time exceeds
// their deadline are cancelled at release (Section 7's anticipated use).
func TestAdmissionControlRejects(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(4), tu(6))).
		UseAdmissionQueue()
	mk := func(name string, cost, deadline, fire float64) {
		h := NewServableAsyncEventHandler(srv, name, tu(cost)).SetDeadline(tu(deadline))
		e := NewServableAsyncEvent(vm, name)
		e.AddServableHandler(h)
		vm.NewOneShotTimer(rtime.AtTU(fire), e, name).Start()
	}
	mk("ok", 3, 10, 0)      // predicted 3 <= 10: accepted
	mk("tight", 3, 5, 0)    // predicted 6+3=9 > 5: rejected
	mk("big", 5, 100, 0)    // cost > capacity: unservable, rejected
	mk("later", 3, 12, 0.5) // with "tight" cancelled, predicted 9 - 0.5 <= 12: accepted
	if err := vm.Run(rtime.AtTU(30)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	want := map[string]struct{ served, rejected bool }{
		"ok":    {true, false},
		"tight": {false, true},
		"big":   {false, true},
		"later": {true, false},
	}
	for _, rec := range srv.Records() {
		w := want[rec.Handler]
		if rec.Served != w.served || rec.Rejected != w.rejected {
			t.Errorf("%s: served=%v rejected=%v, want %+v (predicted %v)",
				rec.Handler, rec.Served, rec.Rejected, w, rec.Predicted.TUs())
		}
	}
	// "later" reuses the slot the cancelled "tight" released; its
	// prediction must still be exact.
	for _, rec := range srv.Records() {
		if rec.Handler == "later" && rec.Predicted != rec.Response() {
			t.Errorf("later: predicted %v, measured %v", rec.Predicted.TUs(), rec.Response().TUs())
		}
	}
}

func TestAdmissionCancelReleasesTailSlot(t *testing.T) {
	q := NewAdmissionQueue(tu(4), tu(6))
	relA := mkRelease(2)
	q.Register(0, relA)
	relB := mkRelease(2)
	q.Register(0, relB)
	q.Cancel(relB)
	// The slot is free again: a new cost-2 event packs into list 0.
	relC := mkRelease(2)
	if got := q.Register(0, relC); got != tu(4) {
		t.Fatalf("prediction after cancel = %v, want 4 (slot reused)", got.TUs())
	}
	if q.Depth() != 1 {
		t.Fatalf("depth = %d", q.Depth())
	}
}

func TestAdmissionCancelMidListIsConservative(t *testing.T) {
	q := NewAdmissionQueue(tu(4), tu(6))
	relA := mkRelease(2)
	q.Register(0, relA)
	relB := mkRelease(2)
	q.Register(0, relB)
	q.Cancel(relA) // not the tail: claim kept
	relC := mkRelease(2)
	if got := q.Register(0, relC); got != tu(6)+tu(2) {
		// New list at instance 1: 6 + 2.
		t.Fatalf("prediction = %v, want 8 (claim kept)", got.TUs())
	}
}

// The admission-queue server still behaves like a polling server on the
// paper's scenario 1.
func TestAdmissionQueueScenario1(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(3), tu(6))).
		UseAdmissionQueue()
	for i, fire := range []float64{0, 6} {
		h := NewServableAsyncEventHandler(srv, []string{"h1", "h2"}[i], tu(2))
		e := NewServableAsyncEvent(vm, h.Name())
		e.AddServableHandler(h)
		vm.NewOneShotTimer(rtime.AtTU(fire), e, h.Name()).Start()
	}
	if err := vm.Run(rtime.AtTU(12)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	for _, rec := range srv.Records() {
		if !rec.Served || rec.Response() != tu(2) || rec.Predicted != tu(2) {
			t.Errorf("%s: %+v", rec.Handler, rec)
		}
	}
}
