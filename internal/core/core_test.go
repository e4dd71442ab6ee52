package core

import (
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/trace"
)

func tu(v float64) rtime.Duration { return rtime.TUs(v) }
func at(v float64) rtime.Time     { return rtime.AtTU(v) }

// scenario builds the Table 1 system on the RTSJ emulation: a server at
// priority 10, tau1 (C=2, T=6) at 2, tau2 (C=1, T=6) at 1, and handlers
// h1 (cost 2) and h2 bound to events e1 and e2 fired by one-shot timers.
type scenario struct {
	vm  *rtsjvm.VM
	srv TaskServer
	h1  *ServableAsyncEventHandler
	h2  *ServableAsyncEventHandler
}

func buildScenario(deferrable bool, oh rtsjvm.Overheads, h2Declared, h2Actual, fire1, fire2 float64) *scenario {
	vm := rtsjvm.NewVM(trace.New(), oh, exec.Options{})
	params := NewTaskServerParameters(0, tu(3), tu(6))
	var srv TaskServer
	if deferrable {
		srv = NewDeferrableTaskServer(vm, "DS", 10, params)
	} else {
		srv = NewPollingTaskServer(vm, "PS", 10, params)
	}
	periodic := func(name string, prio int, cost float64) {
		pp := &rtsjvm.PeriodicParameters{Period: tu(6), Cost: tu(cost)}
		vm.NewRealtimeThread(name, prio, pp, func(r *rtsjvm.RTC) {
			for {
				r.Consume(tu(cost))
				r.WaitForNextPeriod()
			}
		})
	}
	periodic("tau1", 2, 2)
	periodic("tau2", 1, 1)

	s := &scenario{vm: vm, srv: srv}
	s.h1 = NewServableAsyncEventHandler(srv, "h1", tu(2))
	s.h2 = NewServableAsyncEventHandler(srv, "h2", tu(h2Declared)).SetActualCost(tu(h2Actual))
	e1 := NewServableAsyncEvent(vm, "e1")
	e1.AddServableHandler(s.h1)
	e2 := NewServableAsyncEvent(vm, "e2")
	e2.AddServableHandler(s.h2)
	vm.NewOneShotTimer(at(fire1), e1, "e1").Start()
	vm.NewOneShotTimer(at(fire2), e2, "e2").Start()
	return s
}

func (s *scenario) run(t *testing.T, horizon float64) *trace.Trace {
	t.Helper()
	if err := s.vm.Run(at(horizon)); err != nil {
		t.Fatal(err)
	}
	s.vm.Shutdown()
	if err := s.vm.Trace().CheckSingleCPU(); err != nil {
		t.Fatal(err)
	}
	return s.vm.Trace()
}

type seg struct {
	start, end float64
	label      string
}

func checkSegments(t *testing.T, tr *trace.Trace, entity string, want []seg) {
	t.Helper()
	got := tr.SegmentsOf(entity)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d segments %v, want %d\n%s", entity, len(got), got, len(want),
			tr.Gantt(trace.GanttOptions{}))
	}
	for i, w := range want {
		g := got[i]
		if g.Start != at(w.start) || g.End != at(w.end) || g.Label != w.label {
			t.Errorf("%s segment %d: got [%v,%v)%q, want [%v,%v)%q", entity, i,
				g.Start.TUs(), g.End.TUs(), g.Label, w.start, w.end, w.label)
		}
	}
}

// Figure 2 on the real framework: events fired at 0 and 6 are served
// immediately with full capacity.
func TestFrameworkScenario1(t *testing.T) {
	s := buildScenario(false, rtsjvm.Overheads{}, 2, 2, 0, 6)
	tr := s.run(t, 12)
	checkSegments(t, tr, "PS", []seg{{0, 2, "h1"}, {6, 8, "h2"}})
	checkSegments(t, tr, "tau1", []seg{{2, 4, ""}, {8, 10, ""}})
	checkSegments(t, tr, "tau2", []seg{{4, 5, ""}, {10, 11, ""}})
	for _, r := range s.srv.Records() {
		if !r.Served || r.Response() != tu(2) {
			t.Errorf("%s: served=%v response=%v", r.Handler, r.Served, r.Response())
		}
	}
}

// Figure 3: fired at 2 and 4; at time 8 the remaining capacity (1) is below
// h2's cost (2), so h2 waits for the next activation and runs [12,14).
func TestFrameworkScenario2(t *testing.T) {
	s := buildScenario(false, rtsjvm.Overheads{}, 2, 2, 2, 4)
	tr := s.run(t, 18)
	checkSegments(t, tr, "PS", []seg{{6, 8, "h1"}, {12, 14, "h2"}})
	checkSegments(t, tr, "tau1", []seg{{0, 2, ""}, {8, 10, ""}, {14, 16, ""}})
	checkSegments(t, tr, "tau2", []seg{{2, 3, ""}, {10, 11, ""}, {16, 17, ""}})
	recs := s.srv.Records()
	if got := recs[0].Response(); got != tu(6) {
		t.Errorf("h1 response = %v, want 6tu", got)
	}
	if got := recs[1].Response(); got != tu(10) {
		t.Errorf("h2 response = %v, want 10tu", got)
	}
}

// Figure 4: h2 declared with cost 1 but an actual demand of 2. It starts at
// 8 (the remaining capacity is 1) and is interrupted at 9 when the server
// has consumed all its capacity; Java cannot resume it at 12.
func TestFrameworkScenario3(t *testing.T) {
	s := buildScenario(false, rtsjvm.Overheads{}, 1, 2, 2, 4)
	tr := s.run(t, 18)
	checkSegments(t, tr, "PS", []seg{{6, 8, "h1"}, {8, 9, "h2"}})
	recs := s.srv.Records()
	h2 := recs[1]
	if !h2.Interrupted || h2.Served {
		t.Fatalf("h2 record: %+v", h2)
	}
	if h2.Finished != at(9) {
		t.Errorf("h2 interrupted at %v, want 9", h2.Finished.TUs())
	}
	for _, sg := range tr.SegmentsOf("PS") {
		if sg.Start >= at(9) {
			t.Errorf("PS must not serve h2 again: %+v", sg)
		}
	}
}

// The same workload as scenario 2 under the Deferrable Server: h1 is served
// immediately at its release (time 2). h2 (cost 2) does not fit the
// remaining capacity 1 at time 4 (and 4+2 does not cross the boundary at
// 6), so it waits for the replenishment and runs [6,8).
func TestFrameworkScenario2Deferrable(t *testing.T) {
	s := buildScenario(true, rtsjvm.Overheads{}, 2, 2, 2, 4)
	tr := s.run(t, 12)
	checkSegments(t, tr, "DS", []seg{{2, 4, "h1"}, {6, 8, "h2"}})
	recs := s.srv.Records()
	if got := recs[0].Response(); got != tu(2) {
		t.Errorf("h1 response = %v, want 2tu", got)
	}
	if got := recs[1].Response(); got != tu(4) {
		t.Errorf("h2 response = %v, want 4tu", got)
	}
}

// The DS budget-extension rule: remaining capacity 1 at time 5, cost 2,
// 5+2 > 6 (the next replenishment), so the granted budget is 1+3 and the
// event is served [5,7) across the boundary.
func TestDeferrableBudgetExtension(t *testing.T) {
	vm := rtsjvm.NewVM(trace.New(), rtsjvm.Overheads{}, exec.Options{})
	srv := NewDeferrableTaskServer(vm, "DS", 10, NewTaskServerParameters(0, tu(3), tu(6)))
	a := NewServableAsyncEventHandler(srv, "a", tu(2))
	b := NewServableAsyncEventHandler(srv, "b", tu(2))
	ea := NewServableAsyncEvent(vm, "ea")
	ea.AddServableHandler(a)
	eb := NewServableAsyncEvent(vm, "eb")
	eb.AddServableHandler(b)
	vm.NewOneShotTimer(at(0), ea, "ea").Start()
	vm.NewOneShotTimer(at(5), eb, "eb").Start()
	if err := vm.Run(at(12)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	checkSegments(t, vm.Trace(), "DS", []seg{{0, 2, "a"}, {5, 7, "b"}})
	for _, r := range srv.Records() {
		if !r.Served {
			t.Errorf("%s unserved", r.Handler)
		}
	}
}

// A handler whose declared cost exceeds the full capacity can never be
// served by the limited polling server; it must not wedge the queue.
func TestOversizedHandlerSkipped(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(3), tu(6)))
	big := NewServableAsyncEventHandler(srv, "big", tu(5))
	small := NewServableAsyncEventHandler(srv, "small", tu(1))
	e := NewServableAsyncEvent(vm, "e")
	e.AddServableHandler(big)
	e.AddServableHandler(small)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	if err := vm.Run(at(12)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	recs := srv.Records()
	if recs[0].Served || recs[0].Interrupted {
		t.Error("big handler must stay pending forever")
	}
	if !recs[1].Served || recs[1].Response() != tu(1) {
		t.Errorf("small handler: %+v", recs[1])
	}
}

// The out-of-order service the paper describes: with two pending handlers,
// if the first does not fit the remaining capacity and the second does, the
// event released last is served first.
func TestFIFOFirstFitReordering(t *testing.T) {
	vm := rtsjvm.NewVM(trace.New(), rtsjvm.Overheads{}, exec.Options{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(4), tu(6)))
	first := NewServableAsyncEventHandler(srv, "first", tu(3))
	second := NewServableAsyncEventHandler(srv, "second", tu(1))
	e := NewServableAsyncEvent(vm, "e")
	e.AddServableHandler(first)
	e2 := NewServableAsyncEvent(vm, "e2")
	e2.AddServableHandler(second)
	// first arrives at 1 and is served [1,4) leaving capacity 1... then
	// second (cost 1) fits; but make first arrive behind a consumed
	// capacity: serve a filler of cost 3 at 0, then fire both.
	filler := NewServableAsyncEventHandler(srv, "filler", tu(3))
	ef := NewServableAsyncEvent(vm, "ef")
	ef.AddServableHandler(filler)
	vm.NewOneShotTimer(at(0), ef, "ef").Start()
	vm.NewOneShotTimer(at(1), e, "e").Start()
	vm.NewOneShotTimer(at(2), e2, "e2").Start()
	if err := vm.Run(at(20)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	// At 3 the filler is done, capacity 1: "first" (3) does not fit,
	// "second" (1) does -> served [3,4) before "first" ([6,9)).
	checkSegments(t, vm.Trace(), "PS", []seg{{0, 3, "filler"}, {3, 4, "second"}, {6, 9, "first"}})
}

// Overheads shift the schedule: the timer daemon preempts at the highest
// priority and event release costs are charged to the firing context.
func TestOverheadsDelayService(t *testing.T) {
	oh := rtsjvm.Overheads{TimerFire: tu(0.25), EventRelease: tu(0.25)}
	vm := rtsjvm.NewVM(trace.New(), oh, exec.Options{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(3), tu(6)))
	h := NewServableAsyncEventHandler(srv, "h", tu(2))
	e := NewServableAsyncEvent(vm, "e")
	e.AddServableHandler(h)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	if err := vm.Run(at(12)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	segs := vm.Trace().SegmentsOf("PS")
	if len(segs) != 1 || segs[0].Start != at(0.5) {
		t.Fatalf("PS segments = %+v (timer 0.25 + release 0.25 first)", segs)
	}
	rec := srv.Records()[0]
	// Release recorded after the timer-fire overhead, at 0.25.
	if rec.Released != at(0.25) {
		t.Errorf("released at %v, want 0.25", rec.Released.TUs())
	}
	if !rec.Served {
		t.Error("h should be served")
	}
}

// With a tight capacity and a timer firing inside the service window, the
// wall-clock budget is eaten by the preemption and the handler is
// interrupted — the exact mechanism behind Table 3's interrupted ratios.
func TestOverheadInducedInterruption(t *testing.T) {
	oh := rtsjvm.Overheads{TimerFire: tu(0.5)}
	vm := rtsjvm.NewVM(nil, oh, exec.Options{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(4), tu(8)))
	h := NewServableAsyncEventHandler(srv, "h", tu(4)) // exactly the capacity
	e := NewServableAsyncEvent(vm, "e")
	e.AddServableHandler(h)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	// A second, unrelated event fires mid-service and costs daemon time.
	noise := vm.NewAsyncEvent("noise")
	vm.NewOneShotTimer(at(2), noise, "noise").Start()
	if err := vm.Run(at(16)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	rec := srv.Records()[0]
	if !rec.Interrupted {
		t.Fatalf("handler should be interrupted (budget eaten by timer daemon): %+v", rec)
	}
}

// Without any perturbation, a handler whose cost equals the capacity
// completes exactly at the budget boundary.
func TestExactCapacityCompletes(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(4), tu(8)))
	h := NewServableAsyncEventHandler(srv, "h", tu(4))
	e := NewServableAsyncEvent(vm, "e")
	e.AddServableHandler(h)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	if err := vm.Run(at(16)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	rec := srv.Records()[0]
	if !rec.Served || rec.Response() != tu(4) {
		t.Fatalf("record: %+v", rec)
	}
}

// Both servers implement Schedulable and the Section 3 interference hook;
// feasibility analysis accounts for the DS double hit.
func TestServersInFeasibilityAnalysis(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	ps := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(2), tu(5)))
	low := vm.NewRealtimeThread("low", 1, &rtsjvm.PeriodicParameters{Period: tu(10), Cost: tu(2)},
		func(r *rtsjvm.RTC) {})
	s := vm.Scheduler()
	s.AddToFeasibility(ps)
	s.AddToFeasibility(low)
	for _, r := range s.ResponseTimes() {
		if r.Name == "low" && r.R != tu(4) {
			t.Errorf("low under PS R = %v, want 4tu", r.R)
		}
		if r.Name == "PS" && (!r.Analyzable || !r.Feasible) {
			t.Errorf("PS should be analyzable/feasible: %+v", r)
		}
	}
	vm.Shutdown()

	vm2 := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	ds := NewDeferrableTaskServer(vm2, "DS", 10, NewTaskServerParameters(0, tu(2), tu(5)))
	low2 := vm2.NewRealtimeThread("low", 1, &rtsjvm.PeriodicParameters{Period: tu(10), Cost: tu(2)},
		func(r *rtsjvm.RTC) {})
	s2 := vm2.Scheduler()
	s2.AddToFeasibility(ds)
	s2.AddToFeasibility(low2)
	for _, r := range s2.ResponseTimes() {
		if r.Name == "low" && r.R != tu(6) {
			t.Errorf("low under DS R = %v, want 6tu (double hit)", r.R)
		}
	}
	vm2.Shutdown()
}

// One handler bound to several events, and several handlers on one event.
func TestHandlerEventFanInFanOut(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(4), tu(6)))
	shared := NewServableAsyncEventHandler(srv, "shared", tu(1))
	e1 := NewServableAsyncEvent(vm, "e1")
	e1.AddServableHandler(shared)
	e2 := NewServableAsyncEvent(vm, "e2")
	e2.AddServableHandler(shared)
	other := NewServableAsyncEventHandler(srv, "other", tu(1))
	e1.AddServableHandler(other)
	vm.NewOneShotTimer(at(0), e1, "e1").Start()
	vm.NewOneShotTimer(at(1), e2, "e2").Start()
	if err := vm.Run(at(12)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	recs := srv.Records()
	if len(recs) != 3 { // shared+other from e1, shared from e2
		t.Fatalf("records = %d, want 3", len(recs))
	}
	for _, r := range recs {
		if !r.Served {
			t.Errorf("%s unserved", r.Handler)
		}
	}
}

// A servable event also releases its standard (inherited) handlers.
func TestServableEventStandardHandlers(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(4), tu(6)))
	servable := NewServableAsyncEventHandler(srv, "servable", tu(1))
	standardRan := false
	standard := vm.NewAsyncEventHandler("standard", 5, nil, func(tc *exec.TC) {
		tc.Consume(tu(1))
		standardRan = true
	})
	e := NewServableAsyncEvent(vm, "e")
	e.AddServableHandler(servable)
	e.AddHandler(standard)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	if err := vm.Run(at(12)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	if !standardRan {
		t.Error("standard handler did not run")
	}
	if !srv.Records()[0].Served {
		t.Error("servable handler not served")
	}
}

// Failure injection: a panicking handler body surfaces as a VM error and
// does not corrupt the rest of the run.
func TestHandlerPanicSurfaces(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(3), tu(6)))
	bad := NewServableAsyncEventHandler(srv, "bad", tu(1)).SetLogic(func(tc *exec.TC) {
		tc.Consume(tu(0.5))
		panic("handler bug")
	})
	e := NewServableAsyncEvent(vm, "e")
	e.AddServableHandler(bad)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	err := vm.Run(at(12))
	vm.Shutdown()
	if err == nil {
		t.Fatal("handler panic should surface as a run error")
	}
}

// Failure injection: events fired while the system is saturated stay
// pending and are reported unserved, never lost or double-counted.
func TestSaturationAccounting(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	srv := NewPollingTaskServer(vm, "PS", 10, NewTaskServerParameters(0, tu(1), tu(10)))
	const n = 8
	for i := 0; i < n; i++ {
		h := NewServableAsyncEventHandler(srv, "h"+string(rune('0'+i)), tu(1))
		e := NewServableAsyncEvent(vm, "e")
		e.AddServableHandler(h)
		vm.NewOneShotTimer(at(float64(i)*0.1), e, "e").Start()
	}
	if err := vm.Run(at(35)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	recs := srv.Records()
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
	served := 0
	for _, r := range recs {
		if r.Served {
			served++
		}
		if r.Served && r.Interrupted {
			t.Errorf("%s both served and interrupted", r.Handler)
		}
	}
	// Capacity 1 per 10tu over 35tu: activations at 0,10,20,30 serve one
	// event each.
	if served != 4 {
		t.Fatalf("served = %d, want 4", served)
	}
}

func TestTaskServerParametersValidation(t *testing.T) {
	for _, bad := range []struct{ c, p float64 }{{0, 6}, {3, 0}, {7, 6}, {-1, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity=%v period=%v: expected panic", bad.c, bad.p)
				}
			}()
			NewTaskServerParameters(0, tu(bad.c), tu(bad.p))
		}()
	}
	p := NewTaskServerParameters(0, tu(3), tu(6))
	if p.Capacity() != tu(3) || p.ReleasePeriod() != tu(6) {
		t.Error("parameter accessors wrong")
	}
}
