package exec

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

func tu(v float64) rtime.Duration { return rtime.TUs(v) }
func at(v float64) rtime.Time     { return rtime.AtTU(v) }

func runExec(t *testing.T, horizon float64, setup func(ex *Exec)) *trace.Trace {
	t.Helper()
	ex := New(trace.New())
	setup(ex)
	if err := ex.Run(at(horizon)); err != nil {
		t.Fatal(err)
	}
	ex.Shutdown()
	if err := ex.Trace().CheckSingleCPU(); err != nil {
		t.Fatal(err)
	}
	return ex.Trace()
}

func TestSingleThreadConsume(t *testing.T) {
	tr := runExec(t, 10, func(ex *Exec) {
		ex.Spawn("a", 1, 0, func(tc *TC) {
			tc.Consume(tu(3))
		})
	})
	segs := tr.SegmentsOf("a")
	if len(segs) != 1 || segs[0].Start != 0 || segs[0].End != at(3) {
		t.Fatalf("segments = %+v", segs)
	}
}

func TestPriorityPreemption(t *testing.T) {
	tr := runExec(t, 10, func(ex *Exec) {
		ex.Spawn("lo", 1, 0, func(tc *TC) { tc.Consume(tu(6)) })
		ex.Spawn("hi", 2, at(2), func(tc *TC) { tc.Consume(tu(2)) })
	})
	wantLo := []struct{ s, e float64 }{{0, 2}, {4, 8}}
	segs := tr.SegmentsOf("lo")
	if len(segs) != 2 {
		t.Fatalf("lo segments = %+v", segs)
	}
	for i, w := range wantLo {
		if segs[i].Start != at(w.s) || segs[i].End != at(w.e) {
			t.Errorf("lo seg %d = [%v,%v), want [%v,%v)", i, segs[i].Start.TUs(), segs[i].End.TUs(), w.s, w.e)
		}
	}
	hi := tr.SegmentsOf("hi")
	if len(hi) != 1 || hi[0].Start != at(2) || hi[0].End != at(4) {
		t.Fatalf("hi segments = %+v", hi)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	tr := runExec(t, 10, func(ex *Exec) {
		ex.Spawn("a", 1, 0, func(tc *TC) { tc.Consume(tu(2)) })
		ex.Spawn("b", 1, 0, func(tc *TC) { tc.Consume(tu(2)) })
	})
	a, b := tr.SegmentsOf("a"), tr.SegmentsOf("b")
	if a[0].Start != 0 || b[0].Start != at(2) {
		t.Fatalf("a=%+v b=%+v", a, b)
	}
}

func TestSleepAndPeriodicPattern(t *testing.T) {
	tr := runExec(t, 12, func(ex *Exec) {
		ex.Spawn("p", 1, 0, func(tc *TC) {
			period := tu(4)
			next := rtime.Time(0)
			for i := 0; i < 3; i++ {
				tc.Consume(tu(1))
				next = next.Add(period)
				tc.SleepUntil(next)
			}
		})
	})
	segs := tr.SegmentsOf("p")
	if len(segs) != 3 {
		t.Fatalf("segments = %+v", segs)
	}
	for i, want := range []float64{0, 4, 8} {
		if segs[i].Start != at(want) {
			t.Errorf("activation %d at %v, want %v", i, segs[i].Start.TUs(), want)
		}
	}
}

func TestWaitNotify(t *testing.T) {
	q := NewWaitQueue("q")
	var wokenAt rtime.Time
	tr := runExec(t, 10, func(ex *Exec) {
		ex.Spawn("waiter", 2, 0, func(tc *TC) {
			tc.Wait(q)
			wokenAt = tc.Now()
			tc.Consume(tu(1))
		})
		ex.Spawn("notifier", 1, 0, func(tc *TC) {
			tc.Consume(tu(3))
			tc.NotifyAll(q)
			tc.Consume(tu(1))
		})
	})
	if wokenAt != at(3) {
		t.Fatalf("woken at %v, want 3", wokenAt.TUs())
	}
	// The woken waiter (higher priority) preempts the notifier immediately.
	w := tr.SegmentsOf("waiter")
	if len(w) != 1 || w[0].Start != at(3) {
		t.Fatalf("waiter segments = %+v", w)
	}
	n := tr.SegmentsOf("notifier")
	if len(n) != 2 || n[1].Start != at(4) || n[1].End != at(5) {
		t.Fatalf("notifier segments = %+v", n)
	}
}

func TestNotifyOneFIFO(t *testing.T) {
	q := NewWaitQueue("q")
	var order []string
	runExec(t, 10, func(ex *Exec) {
		for _, name := range []string{"w1", "w2"} {
			name := name
			ex.Spawn(name, 2, 0, func(tc *TC) {
				tc.Wait(q)
				order = append(order, name)
			})
		}
		ex.Spawn("n", 1, 0, func(tc *TC) {
			tc.Consume(tu(1))
			tc.NotifyOne(q)
			tc.Consume(tu(1))
			tc.NotifyOne(q)
		})
	})
	if len(order) != 2 || order[0] != "w1" || order[1] != "w2" {
		t.Fatalf("order = %v", order)
	}
}

func TestWithBudgetInterruptsLongWork(t *testing.T) {
	var interrupted bool
	var elapsed rtime.Duration
	runExec(t, 20, func(ex *Exec) {
		ex.Spawn("srv", 1, 0, func(tc *TC) {
			start := tc.Now()
			interrupted = tc.WithBudget(tu(2), func() {
				tc.Consume(tu(5))
			})
			elapsed = tc.Now().Sub(start)
		})
	})
	if !interrupted {
		t.Fatal("expected interruption")
	}
	if elapsed != tu(2) {
		t.Fatalf("elapsed = %v, want 2tu", elapsed)
	}
}

func TestWithBudgetCompletesShortWork(t *testing.T) {
	var interrupted bool
	runExec(t, 20, func(ex *Exec) {
		ex.Spawn("srv", 1, 0, func(tc *TC) {
			interrupted = tc.WithBudget(tu(5), func() {
				tc.Consume(tu(2))
				tc.Consume(tu(2))
			})
		})
	})
	if interrupted {
		t.Fatal("work within budget must not be interrupted")
	}
}

func TestWithBudgetExactBoundaryCompletes(t *testing.T) {
	var interrupted bool
	runExec(t, 20, func(ex *Exec) {
		ex.Spawn("srv", 1, 0, func(tc *TC) {
			interrupted = tc.WithBudget(tu(3), func() { tc.Consume(tu(3)) })
		})
	})
	if interrupted {
		t.Fatal("work finishing exactly at the budget completes")
	}
}

func TestWithBudgetPendingBetweenConsumes(t *testing.T) {
	// Budget expires during zero-time code between two consumes: the next
	// consume must unwind immediately.
	var interrupted bool
	var secondStarted bool
	runExec(t, 20, func(ex *Exec) {
		hp := NewWaitQueue("hp")
		ex.Spawn("intruder", 5, at(1), func(tc *TC) {
			// Higher-priority thread eats wall time inside the budget
			// window, so the budgeted section's own work is not done when
			// the budget expires.
			tc.Consume(tu(3))
			tc.NotifyAll(hp)
		})
		ex.Spawn("srv", 1, 0, func(tc *TC) {
			interrupted = tc.WithBudget(tu(2), func() {
				tc.Consume(tu(1)) // finishes at wall time 4 (preempted 3tu)
				secondStarted = true
				tc.Consume(tu(1))
			})
		})
	})
	if !interrupted {
		t.Fatal("expected interruption")
	}
	if !secondStarted {
		// The first consume itself is interrupted at wall time 2.
		t.Log("interrupted during first consume (wall-clock budget), as designed")
	}
}

func TestBudgetIsWallClock(t *testing.T) {
	// The paper measures "the time passed in the run method" — wall
	// (virtual) time, not CPU time. A preemption inside the budget window
	// therefore eats the handler's budget. This is the mechanism behind
	// the non-zero interrupted ratios of Tables 3 and 5.
	var interrupted bool
	runExec(t, 20, func(ex *Exec) {
		ex.Spawn("timerd", 5, at(1), func(tc *TC) { tc.Consume(tu(1)) })
		ex.Spawn("srv", 1, 0, func(tc *TC) {
			interrupted = tc.WithBudget(tu(3), func() {
				tc.Consume(tu(3)) // needs 3 CPU, but loses 1tu to timerd
			})
		})
	})
	if !interrupted {
		t.Fatal("budget must be consumed by preempting threads (wall-clock semantics)")
	}
}

func TestThreadErrorSurfaces(t *testing.T) {
	ex := New(nil)
	ex.Spawn("bad", 1, 0, func(tc *TC) {
		tc.Consume(tu(1))
		panic("boom")
	})
	err := ex.Run(at(10))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	ex.Shutdown()
}

func TestQuiescenceStopsEarly(t *testing.T) {
	ex := New(nil)
	ex.Spawn("a", 1, 0, func(tc *TC) { tc.Consume(tu(2)) })
	if err := ex.Run(at(1000)); err != nil {
		t.Fatal(err)
	}
	if ex.Now() != at(2) {
		t.Fatalf("now = %v, want 2 (quiescent)", ex.Now().TUs())
	}
	ex.Shutdown()
}

func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ex := New(nil)
		q := NewWaitQueue("never")
		ex.Spawn("blocked", 1, 0, func(tc *TC) { tc.Wait(q) })
		ex.Spawn("sleeper", 1, 0, func(tc *TC) { tc.SleepUntil(at(1e6)) })
		ex.Spawn("never-started", 1, at(1e6), func(tc *TC) {})
		if err := ex.Run(at(5)); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	after := runtime.NumGoroutine()
	if after > before+5 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestRunAndShutdownAcrossGoroutines pins the trampoline's calling
// contract: Run and Shutdown may be called from different goroutines, one
// call at a time. Three goroutines make one call each, each starting after
// the previous one returned — Run to 5, Run to 10 with bodies suspended
// mid-consume, then Shutdown — and the schedule must equal the
// single-goroutine run, with every worker gone afterwards.
func TestRunAndShutdownAcrossGoroutines(t *testing.T) {
	build := func(opts Options) (*Exec, *Thread) {
		ex := NewWithOptions(trace.New(), opts)
		q := NewWaitQueue("q")
		long := ex.Spawn("long", 1, 0, func(tc *TC) {
			tc.Consume(tu(12))
			tc.NotifyAll(q)
		})
		ex.Spawn("tick", 3, 0, func(tc *TC) {
			for {
				tc.Consume(tu(1))
				tc.Sleep(tu(2))
			}
		})
		ex.Spawn("waiter", 2, 0, func(tc *TC) {
			tc.Wait(q)
			tc.Consume(tu(1))
		})
		ex.SpawnPeriodic("act", 4, ActivationSpec{Period: tu(4)}, func(tc *TC) {
			tc.Consume(tu(0.5))
		})
		return ex, long
	}
	for _, cfg := range diffConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			ref, _ := build(cfg.opts)
			for _, h := range []float64{5, 10} {
				if err := ref.Run(at(h)); err != nil {
					t.Fatal(err)
				}
			}
			ref.Shutdown()

			before := runtime.NumGoroutine()
			ex, long := build(cfg.opts)
			call := func(f func() error) {
				done := make(chan error)
				go func() { done <- f() }()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			call(func() error { return ex.Run(at(5)) })
			if long.co == nil || long.needCPU <= 0 {
				t.Fatal("no body suspended mid-consume at the first horizon")
			}
			call(func() error { return ex.Run(at(10)) })
			call(func() error { ex.Shutdown(); return nil })

			if got, want := ex.Trace().Fingerprint(), ref.Trace().Fingerprint(); got != want {
				t.Errorf("cross-goroutine schedule %#x, single-goroutine %#x", got, want)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
				runtime.Gosched()
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before+5 {
				t.Errorf("goroutines leaked: before=%d after=%d", before, after)
			}
		})
	}
}

func TestDeterministicTraces(t *testing.T) {
	build := func() *trace.Trace {
		ex := New(trace.New())
		q := NewWaitQueue("q")
		ex.Spawn("t1", 3, 0, func(tc *TC) {
			for i := 0; i < 3; i++ {
				tc.Consume(tu(1))
				tc.Sleep(tu(2))
			}
		})
		ex.Spawn("t2", 2, 0, func(tc *TC) {
			tc.Consume(tu(4))
			tc.NotifyAll(q)
		})
		ex.Spawn("t3", 1, 0, func(tc *TC) {
			tc.Wait(q)
			tc.Consume(tu(2))
		})
		if err := ex.Run(at(30)); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
		return ex.Trace()
	}
	a, b := build(), build()
	ga := a.Gantt(trace.GanttOptions{})
	gb := b.Gantt(trace.GanttOptions{})
	if ga != gb {
		t.Fatalf("non-deterministic traces:\n%s\nvs\n%s", ga, gb)
	}
}

func TestKernelTimerAt(t *testing.T) {
	var fired []float64
	ex := New(nil)
	ex.At(at(3), func() { fired = append(fired, ex.Now().TUs()) })
	ex.At(at(4), func() { fired = append(fired, -1) }).Cancel()
	ex.At(at(5), func() { fired = append(fired, ex.Now().TUs()) })
	if err := ex.Run(at(10)); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestConsumedAccounting(t *testing.T) {
	ex := New(nil)
	th := ex.Spawn("a", 1, 0, func(tc *TC) {
		tc.Consume(tu(2))
		tc.Sleep(tu(1))
		tc.Consume(tu(3))
	})
	if err := ex.Run(at(100)); err != nil {
		t.Fatal(err)
	}
	ex.Shutdown()
	if got := th.Consumed(); got != tu(5) {
		t.Fatalf("consumed = %v, want 5tu", got)
	}
	if !th.Done() {
		t.Fatal("thread should be done")
	}
}

func TestSetLabelAppearsInTrace(t *testing.T) {
	tr := runExec(t, 10, func(ex *Exec) {
		ex.Spawn("srv", 1, 0, func(tc *TC) {
			tc.SetLabel("h1")
			tc.Consume(tu(1))
			tc.SetLabel("h2")
			tc.Consume(tu(1))
		})
	})
	segs := tr.SegmentsOf("srv")
	if len(segs) != 2 || segs[0].Label != "h1" || segs[1].Label != "h2" {
		t.Fatalf("segments = %+v", segs)
	}
}

// Property: over random thread sets, the trace is a valid uniprocessor
// schedule, every thread's traced time equals its Consumed() accounting,
// and total traced time never exceeds the horizon.
func TestExecConservationProperty(t *testing.T) {
	rng := newDetRand(99)
	for trial := 0; trial < 50; trial++ {
		ex := New(trace.New())
		type spec struct {
			th    *Thread
			total rtime.Duration
		}
		var specs []*spec
		n := 1 + rng.next()%5
		for i := 0; i < n; i++ {
			bursts := 1 + rng.next()%4
			var total rtime.Duration
			var plan []rtime.Duration
			for k := 0; k < bursts; k++ {
				d := rtime.Duration(1+rng.next()%30) * rtime.TU / 10
				plan = append(plan, d)
				total += d
			}
			sleep := rtime.Duration(rng.next()%20) * rtime.TU / 10
			s := &spec{total: total}
			s.th = ex.Spawn("t"+string(rune('1'+i)), 1+rng.next()%3,
				rtime.Time(rtime.Duration(rng.next()%10)*rtime.TU), func(tc *TC) {
					for _, d := range plan {
						tc.Consume(d)
						tc.Sleep(sleep)
					}
				})
			specs = append(specs, s)
		}
		horizon := at(200)
		if err := ex.Run(horizon); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
		tr := ex.Trace()
		if err := tr.CheckSingleCPU(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tr.TotalBusy() > rtime.Duration(horizon) {
			t.Fatalf("trial %d: busy %v beyond horizon", trial, tr.TotalBusy())
		}
		for _, s := range specs {
			if got := tr.BusyTime(s.th.Name()); got != s.th.Consumed() {
				t.Fatalf("trial %d: %s traced %v but accounted %v",
					trial, s.th.Name(), got, s.th.Consumed())
			}
			if s.th.Done() && s.th.Consumed() != s.total {
				t.Fatalf("trial %d: %s done with %v consumed, want %v",
					trial, s.th.Name(), s.th.Consumed(), s.total)
			}
		}
	}
}

// detRand is a tiny deterministic generator for the property test (the
// executive forbids wall-clock randomness by design).
type detRand struct{ s uint64 }

func newDetRand(seed uint64) *detRand { return &detRand{s: seed} }

func (r *detRand) next() int {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return int((r.s >> 33) % (1 << 30))
}

func TestSpawnFromThread(t *testing.T) {
	tr := runExec(t, 10, func(ex *Exec) {
		ex.Spawn("parent", 1, 0, func(tc *TC) {
			tc.Consume(tu(1))
			tc.Exec().Spawn("child", 2, tc.Now(), func(tc2 *TC) {
				tc2.Consume(tu(1))
			})
			tc.Consume(tu(2))
		})
	})
	c := tr.SegmentsOf("child")
	if len(c) != 1 || c[0].Start != at(1) {
		t.Fatalf("child segments = %+v", c)
	}
	// Child (higher priority) preempted the parent immediately.
	p := tr.SegmentsOf("parent")
	if len(p) != 2 || p[1].Start != at(2) {
		t.Fatalf("parent segments = %+v", p)
	}
}
