package rtsjvm

import (
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

func tu(v float64) rtime.Duration { return rtime.TUs(v) }
func at(v float64) rtime.Time     { return rtime.AtTU(v) }

func newTestVM(oh Overheads) *VM { return NewVM(trace.New(), oh, exec.Options{}) }

func runVM(t *testing.T, vm *VM, horizon float64) {
	t.Helper()
	if err := vm.Run(at(horizon)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	if err := vm.Trace().CheckSingleCPU(); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicRealtimeThread(t *testing.T) {
	vm := newTestVM(Overheads{})
	pp := &PeriodicParameters{Period: tu(5), Cost: tu(1)}
	var releases []float64
	vm.NewRealtimeThread("p", 5, pp, func(r *RTC) {
		for i := 0; i < 3; i++ {
			releases = append(releases, r.Now().TUs())
			r.Consume(tu(1))
			r.WaitForNextPeriod()
		}
	})
	runVM(t, vm, 20)
	want := []float64{0, 5, 10}
	if len(releases) != len(want) {
		t.Fatalf("releases = %v", releases)
	}
	for i := range want {
		if releases[i] != want[i] {
			t.Errorf("release %d at %v, want %v", i, releases[i], want[i])
		}
	}
}

func TestWaitForNextPeriodSkipsMissedActivations(t *testing.T) {
	vm := newTestVM(Overheads{})
	pp := &PeriodicParameters{Period: tu(4), Cost: tu(1)}
	var onTimes []bool
	var rtc *RTC
	vm.NewRealtimeThread("p", 5, pp, func(r *RTC) {
		rtc = r
		r.Consume(tu(9)) // overruns two periods
		onTimes = append(onTimes, r.WaitForNextPeriod())
		r.Consume(tu(1))
		onTimes = append(onTimes, r.WaitForNextPeriod())
	})
	runVM(t, vm, 40)
	// After consuming 9, the releases at 4 and 8 are missed; the thread
	// resumes at 12.
	if len(onTimes) != 2 || onTimes[0] != false || onTimes[1] != true {
		t.Fatalf("onTimes = %v", onTimes)
	}
	if rtc.Missed != 2 {
		t.Fatalf("Missed = %d, want 2", rtc.Missed)
	}
}

func TestAsyncEventReleasesHandlers(t *testing.T) {
	vm := newTestVM(Overheads{})
	var handledAt []float64
	h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) {
		tc.Consume(tu(1))
		handledAt = append(handledAt, tc.Now().TUs())
	})
	e := vm.NewAsyncEvent("e")
	e.AddHandler(h)
	vm.NewOneShotTimer(at(2), e, "e").Start()
	vm.NewOneShotTimer(at(5), e, "e").Start()
	runVM(t, vm, 20)
	if len(handledAt) != 2 || handledAt[0] != 3 || handledAt[1] != 6 {
		t.Fatalf("handledAt = %v", handledAt)
	}
	if h.HandledCount() != 2 || h.ReleasedCount() != 2 || h.FireCount() != 0 {
		t.Fatalf("counts: handled=%d released=%d pending=%d",
			h.HandledCount(), h.ReleasedCount(), h.FireCount())
	}
}

func TestFireCountBuffersBursts(t *testing.T) {
	// Two fires while the handler is busy: both must eventually run.
	vm := newTestVM(Overheads{})
	var done int
	h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) {
		tc.Consume(tu(3))
		done++
	})
	e := vm.NewAsyncEvent("e")
	e.AddHandler(h)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	vm.NewOneShotTimer(at(1), e, "e").Start()
	runVM(t, vm, 20)
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
}

func TestMultipleHandlersOneEvent(t *testing.T) {
	vm := newTestVM(Overheads{})
	var order []string
	mk := func(name string, prio int) *AsyncEventHandler {
		return vm.NewAsyncEventHandler(name, prio, nil, func(tc *exec.TC) {
			tc.Consume(tu(1))
			order = append(order, name)
		})
	}
	hi := mk("hi", 9)
	lo := mk("lo", 2)
	e := vm.NewAsyncEvent("e")
	e.AddHandler(lo)
	e.AddHandler(hi)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	runVM(t, vm, 10)
	if len(order) != 2 || order[0] != "hi" || order[1] != "lo" {
		t.Fatalf("order = %v (priority must win)", order)
	}
}

func TestRemoveHandler(t *testing.T) {
	vm := newTestVM(Overheads{})
	ran := false
	h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { ran = true })
	e := vm.NewAsyncEvent("e")
	e.AddHandler(h)
	e.RemoveHandler(h)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	runVM(t, vm, 5)
	if ran {
		t.Fatal("removed handler must not run")
	}
	if len(e.Handlers()) != 0 {
		t.Fatal("handler list not empty")
	}
}

func TestPeriodicTimer(t *testing.T) {
	vm := newTestVM(Overheads{})
	var fires []float64
	h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) {
		fires = append(fires, tc.Now().TUs())
	})
	e := vm.NewAsyncEvent("tick")
	e.AddHandler(h)
	pt := vm.NewPeriodicTimer(at(1), tu(3), e, "tick")
	pt.Start()
	runVM(t, vm, 11)
	want := []float64{1, 4, 7, 10}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v", fires)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestPeriodicTimerStop(t *testing.T) {
	vm := newTestVM(Overheads{})
	count := 0
	h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { count++ })
	e := vm.NewAsyncEvent("tick")
	e.AddHandler(h)
	pt := vm.NewPeriodicTimer(at(0), tu(2), e, "tick")
	pt.Start()
	stopper := vm.NewRealtimeThread("stopper", 9, nil, func(r *RTC) {
		r.SleepUntil(at(5))
		pt.Stop()
	})
	_ = stopper
	runVM(t, vm, 20)
	if count != 3 { // fires at 0, 2, 4
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestOneShotTimerStop(t *testing.T) {
	vm := newTestVM(Overheads{})
	ran := false
	h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { ran = true })
	e := vm.NewAsyncEvent("e")
	e.AddHandler(h)
	timer := vm.NewOneShotTimer(at(5), e, "e")
	timer.Start()
	if !timer.Stop() {
		t.Fatal("Stop on armed timer should succeed")
	}
	if timer.Stop() {
		t.Fatal("second Stop should fail")
	}
	runVM(t, vm, 10)
	if ran {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerFireOverheadChargedAtTopPriority(t *testing.T) {
	oh := Overheads{TimerFire: tu(0.5)}
	vm := newTestVM(oh)
	h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { tc.Consume(tu(1)) })
	e := vm.NewAsyncEvent("e")
	e.AddHandler(h)
	vm.NewOneShotTimer(at(2), e, "e").Start()
	// A lower-priority busy thread: the daemon must preempt it.
	vm.NewRealtimeThread("busy", 1, nil, func(r *RTC) { r.Consume(tu(10)) })
	runVM(t, vm, 20)
	segs := vm.Trace().SegmentsOf("timerd")
	if len(segs) != 1 || segs[0].Start != at(2) || segs[0].End != at(2.5) {
		t.Fatalf("timerd segments = %+v", segs)
	}
}

func TestEventReleaseOverheadCharged(t *testing.T) {
	oh := Overheads{EventRelease: tu(0.25)}
	vm := newTestVM(oh)
	h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { tc.Consume(tu(1)) })
	e := vm.NewAsyncEvent("e")
	e.AddHandler(h)
	vm.NewOneShotTimer(at(0), e, "e").Start()
	runVM(t, vm, 10)
	// Release overhead is consumed by the firing context (the daemon).
	if got := vm.Trace().BusyTime("timerd"); got != tu(0.25) {
		t.Fatalf("timerd busy = %v, want 0.25tu", got)
	}
	segs := vm.Trace().SegmentsOf("h")
	if len(segs) != 1 || segs[0].Start != at(0.25) {
		t.Fatalf("handler segments = %+v", segs)
	}
}

func TestTimedCompletesWithinBudget(t *testing.T) {
	vm := newTestVM(Overheads{})
	var completed bool
	var elapsed rtime.Duration
	vm.NewRealtimeThread("srv", 5, nil, func(r *RTC) {
		timed := vm.NewTimed(tu(4))
		completed, elapsed = timed.DoInterruptible(r.TC, Interruptible{
			Run: func(tc *exec.TC) { tc.Consume(tu(2)) },
		})
	})
	runVM(t, vm, 10)
	if !completed || elapsed != tu(2) {
		t.Fatalf("completed=%v elapsed=%v", completed, elapsed)
	}
}

func TestTimedInterruptsAndRunsAction(t *testing.T) {
	vm := newTestVM(Overheads{})
	var completed bool
	var elapsed rtime.Duration
	var actionRan bool
	vm.NewRealtimeThread("srv", 5, nil, func(r *RTC) {
		timed := vm.NewTimed(tu(2))
		completed, elapsed = timed.DoInterruptible(r.TC, Interruptible{
			Run:             func(tc *exec.TC) { tc.Consume(tu(5)) },
			InterruptAction: func(tc *exec.TC) { actionRan = true },
		})
	})
	runVM(t, vm, 10)
	if completed || elapsed != tu(2) || !actionRan {
		t.Fatalf("completed=%v elapsed=%v actionRan=%v", completed, elapsed, actionRan)
	}
}

func TestTimedElapsedIncludesPreemption(t *testing.T) {
	// Wall-clock budget: a higher-priority thread running inside the
	// window counts against the budget.
	vm := newTestVM(Overheads{})
	var completed bool
	var elapsed rtime.Duration
	vm.NewRealtimeThread("intruder", 9, &PeriodicParameters{Start: at(1), Period: tu(100), Cost: tu(1)},
		func(r *RTC) { r.Consume(tu(1)) })
	vm.NewRealtimeThread("srv", 5, nil, func(r *RTC) {
		timed := vm.NewTimed(tu(4))
		completed, elapsed = timed.DoInterruptible(r.TC, Interruptible{
			Run: func(tc *exec.TC) { tc.Consume(tu(2)) },
		})
	})
	runVM(t, vm, 10)
	if !completed {
		t.Fatal("should still complete: 2 CPU + 1 preemption <= 4 budget")
	}
	if elapsed != tu(3) {
		t.Fatalf("elapsed = %v, want 3tu (wall clock)", elapsed)
	}
}

func TestTimedInterruptOverhead(t *testing.T) {
	vm := newTestVM(Overheads{Interrupt: tu(0.5)})
	var elapsed rtime.Duration
	vm.NewRealtimeThread("srv", 5, nil, func(r *RTC) {
		timed := vm.NewTimed(tu(2))
		_, elapsed = timed.DoInterruptible(r.TC, Interruptible{
			Run: func(tc *exec.TC) { tc.Consume(tu(5)) },
		})
	})
	runVM(t, vm, 10)
	if elapsed != tu(2.5) {
		t.Fatalf("elapsed = %v, want 2.5tu (budget + unwind)", elapsed)
	}
}

func TestPGPWithoutEnforcementHasNoEffect(t *testing.T) {
	// The paper's critique: without cost enforcement (optional in the
	// RTSJ, absent from the reference implementation), PGP budgets change
	// nothing.
	vm := newTestVM(Overheads{})
	g := vm.NewProcessingGroupParameters(0, tu(10), tu(2), false)
	var finished rtime.Time
	vm.NewRealtimeThread("member", 5, nil, func(r *RTC) {
		g.ConsumeGoverned(r.TC, tu(8)) // four times the budget
		finished = r.Now()
	})
	runVM(t, vm, 50)
	if finished != at(8) {
		t.Fatalf("finished at %v, want 8 (budget ignored)", finished.TUs())
	}
}

func TestPGPWithEnforcementThrottles(t *testing.T) {
	vm := newTestVM(Overheads{})
	g := vm.NewProcessingGroupParameters(0, tu(10), tu(2), true)
	var finished rtime.Time
	vm.NewRealtimeThread("member", 5, nil, func(r *RTC) {
		g.ConsumeGoverned(r.TC, tu(6))
		finished = r.Now()
	})
	runVM(t, vm, 100)
	// 2 units in [0,2), 2 in [10,12), 2 in [20,22).
	if finished != at(22) {
		t.Fatalf("finished at %v, want 22 (throttled)", finished.TUs())
	}
	if rem := g.Remaining(at(22)); rem != 0 {
		t.Fatalf("remaining = %v, want 0", rem)
	}
	if rem := g.Remaining(at(30)); rem != tu(2) {
		t.Fatalf("remaining after replenish = %v, want 2tu", rem)
	}
}

func TestSchedulerFeasibilityClassic(t *testing.T) {
	vm := newTestVM(Overheads{})
	s := vm.Scheduler()
	t1 := vm.NewRealtimeThread("t1", 3, &PeriodicParameters{Period: tu(4), Cost: tu(1)}, func(r *RTC) {})
	t2 := vm.NewRealtimeThread("t2", 2, &PeriodicParameters{Period: tu(6), Cost: tu(2)}, func(r *RTC) {})
	t3 := vm.NewRealtimeThread("t3", 1, &PeriodicParameters{Period: tu(12), Cost: tu(3)}, func(r *RTC) {})
	s.AddToFeasibility(t1)
	s.AddToFeasibility(t2)
	s.AddToFeasibility(t3)
	rs := s.ResponseTimes()
	want := map[string]float64{"t1": 1, "t2": 3, "t3": 10}
	for _, r := range rs {
		if !r.Analyzable || !r.Feasible {
			t.Errorf("%s not feasible: %+v", r.Name, r)
		}
		if got := r.R.TUs(); got != want[r.Name] {
			t.Errorf("%s R = %v, want %v", r.Name, got, want[r.Name])
		}
	}
	if !s.IsFeasible() {
		t.Error("set should be feasible")
	}
	vm.Shutdown()
}

func TestSchedulerUnanalyzableAperiodic(t *testing.T) {
	vm := newTestVM(Overheads{})
	s := vm.Scheduler()
	// A plain aperiodic handler at high priority poisons the analysis of
	// everything below it — the paper's Section 3 argument.
	h := vm.NewAsyncEventHandler("h", 9, &AperiodicParameters{Cost: tu(1)}, func(tc *exec.TC) {})
	low := vm.NewRealtimeThread("low", 1, &PeriodicParameters{Period: tu(10), Cost: tu(1)}, func(r *RTC) {})
	s.AddToFeasibility(h)
	s.AddToFeasibility(low)
	rs := s.ResponseTimes()
	for _, r := range rs {
		if r.Analyzable {
			t.Errorf("%s should be unanalyzable", r.Name)
		}
	}
	if s.IsFeasible() {
		t.Error("set with unbounded aperiodic must not be feasible")
	}
	vm.Shutdown()
}

func TestSchedulerSporadicAnalyzable(t *testing.T) {
	vm := newTestVM(Overheads{})
	s := vm.Scheduler()
	h := vm.NewAsyncEventHandler("h", 9,
		&SporadicParameters{AperiodicParameters: AperiodicParameters{Cost: tu(1), Deadline: tu(5)}, MinInterarrival: tu(5)},
		func(tc *exec.TC) {})
	low := vm.NewRealtimeThread("low", 1, &PeriodicParameters{Period: tu(10), Cost: tu(2)}, func(r *RTC) {})
	s.AddToFeasibility(h)
	s.AddToFeasibility(low)
	for _, r := range s.ResponseTimes() {
		if !r.Analyzable || !r.Feasible {
			t.Errorf("%s: %+v", r.Name, r)
		}
	}
	vm.Shutdown()
}

func TestSchedulerRemoveFromFeasibility(t *testing.T) {
	vm := newTestVM(Overheads{})
	s := vm.Scheduler()
	t1 := vm.NewRealtimeThread("t1", 3, &PeriodicParameters{Period: tu(4), Cost: tu(1)}, func(r *RTC) {})
	s.AddToFeasibility(t1)
	if !s.RemoveFromFeasibility(t1) {
		t.Error("remove failed")
	}
	if s.RemoveFromFeasibility(t1) {
		t.Error("double remove succeeded")
	}
	if len(s.FeasibilitySet()) != 0 {
		t.Error("set not empty")
	}
	vm.Shutdown()
}

// interferenceStub exercises the paper's proposed getInterference hook.
type interferenceStub struct {
	name string
	prio int
	cs   rtime.Duration
	ts   rtime.Duration
}

func (d *interferenceStub) SchedulableName() string               { return d.name }
func (d *interferenceStub) SchedulablePriority() int              { return d.prio }
func (d *interferenceStub) SchedulableRelease() ReleaseParameters { return nil }
func (d *interferenceStub) Interference(w rtime.Duration) rtime.Duration {
	// Deferrable-server style: release jitter Ts - Cs.
	return rtime.Duration(rtime.DivCeil(w+(d.ts-d.cs), d.ts)) * d.cs
}

func TestSchedulerUsesInterferenceProvider(t *testing.T) {
	vm := newTestVM(Overheads{})
	s := vm.Scheduler()
	ds := &interferenceStub{name: "DS", prio: 10, cs: tu(2), ts: tu(5)}
	low := vm.NewRealtimeThread("low", 1, &PeriodicParameters{Period: tu(10), Cost: tu(2)}, func(r *RTC) {})
	s.AddToFeasibility(ds)
	s.AddToFeasibility(low)
	var lowR rtime.Duration
	for _, r := range s.ResponseTimes() {
		if r.Name == "low" {
			if !r.Analyzable {
				t.Fatal("low should be analyzable via the interference hook")
			}
			lowR = r.R
		}
	}
	// Double hit: w = 2 + 2*2 = 6 (same as analysis.WithDeferrableServer).
	if lowR != tu(6) {
		t.Fatalf("low R = %v, want 6tu", lowR)
	}
	vm.Shutdown()
}
