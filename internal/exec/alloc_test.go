package exec

import (
	"fmt"
	"testing"

	"rtsj/internal/rtime"
)

// The executive's steady state allocates nothing: once warm, a release,
// a sleep/wake step, a context switch or a budgeted section reuses the
// thread's embedded context, resident workers and recycled timer nodes.
// These tests pin that with testing.AllocsPerRun, one Run step per
// measured call.

// assertNoAllocs runs step until warm and then requires it to allocate
// nothing on average. The race detector allocates on its own account, and
// the debugchecks build audits the ready heap through allocating copies on
// every dispatch, so under either the assertion is skipped.
func assertNoAllocs(t *testing.T, step func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates; allocation counts are meaningless under -race")
	}
	if debugChecks {
		t.Skip("the debugchecks heap audit allocates on every dispatch")
	}
	for i := 0; i < 20; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("%v allocations per step, want 0", n)
	}
}

// runStepper returns a step that advances ex's horizon by d and runs to
// it.
func runStepper(t *testing.T, ex *Exec, d rtime.Duration) func() {
	horizon := ex.Now()
	return func() {
		horizon = horizon.Add(d)
		if err := ex.Run(horizon); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocsPooledActivationRelease: one release of an activation entity
// on the worker pool — timer fire, pool start, body dispatch, rearm. The
// body runs on the worker the previous release freed, not on a fresh
// coroutine.
func TestAllocsPooledActivationRelease(t *testing.T) {
	ex := NewWithOptions(nil, Options{})
	defer ex.Shutdown()
	runs := 0
	ex.SpawnPeriodic("p", 1, ActivationSpec{Period: tu(2)}, func(tc *TC) {
		tc.Consume(tu(1))
		runs++
	})
	run := runStepper(t, ex, tu(2))
	steps := 0
	assertNoAllocs(t, func() { run(); steps++ })
	if runs != steps {
		t.Fatalf("%d releases in %d steps, want one per step", runs, steps)
	}
}

// TestAllocsTwoThreadSwitch: one real context switch per step — two
// equal-priority threads take turns, each consuming one unit and then
// sleeping until its next turn two units later, so every step suspends
// one body and resumes the other.
func TestAllocsTwoThreadSwitch(t *testing.T) {
	ex := NewWithOptions(nil, Options{})
	defer ex.Shutdown()
	steps := 0
	for i := 0; i < 2; i++ {
		next := at(float64(i))
		ex.Spawn(fmt.Sprintf("t%d", i), 1, next, func(tc *TC) {
			for {
				tc.Consume(tu(1))
				steps++
				next = next.Add(tu(2))
				tc.SleepUntil(next)
			}
		})
	}
	run := runStepper(t, ex, tu(1))
	calls := 0
	assertNoAllocs(t, func() { run(); calls++ })
	if steps != calls {
		t.Fatalf("%d turns in %d steps, want one per step", steps, calls)
	}
}

// TestAllocsThreadSleepWake: one step of an uncapped looping thread —
// consume, then sleep until the next period through a wake timer.
func TestAllocsThreadSleepWake(t *testing.T) {
	ex := NewWithOptions(nil, Options{})
	defer ex.Shutdown()
	steps := 0
	ex.Spawn("loop", 1, 0, func(tc *TC) {
		next := rtime.Time(0)
		for {
			tc.Consume(tu(1))
			steps++
			next = next.Add(tu(2))
			tc.SleepUntil(next)
		}
	})
	step := runStepper(t, ex, tu(2))
	assertNoAllocs(t, step)
	if steps == 0 {
		t.Fatal("the loop never ran")
	}
}

// TestAllocsBudgetArmedThenCancelled: one WithBudget section whose body
// finishes inside the budget, so its expiry timer is armed and then
// cancelled (and its node recycled when the dead key surfaces).
func TestAllocsBudgetArmedThenCancelled(t *testing.T) {
	ex := NewWithOptions(nil, Options{})
	defer ex.Shutdown()
	completed := 0
	ex.Spawn("budgeted", 1, 0, func(tc *TC) {
		next := rtime.Time(0)
		for {
			if !tc.WithBudget(tu(5), func() { tc.Consume(tu(1)) }) {
				completed++
			}
			next = next.Add(tu(2))
			tc.SleepUntil(next)
		}
	})
	step := runStepper(t, ex, tu(2))
	assertNoAllocs(t, step)
	if completed == 0 {
		t.Fatal("no budgeted section completed")
	}
}

// TestAllocsResetRun: one whole run on a reset executive — Reset, spawn a
// periodic entity, a looping thread that waits on a queue and a sleeper,
// arm a timer past the horizon, run — reuses the previous run's threads,
// timer nodes, heaps and workers, on one CPU and on two under every
// migration policy. The bodies are built once, outside the step; a run
// ends with bodies in progress and timers armed, which Reset unwinds and
// recycles.
func TestAllocsResetRun(t *testing.T) {
	for _, opts := range []Options{
		{},
		{CPUs: 2, Migration: Global},
		{CPUs: 2, Migration: Partitioned},
		{CPUs: 3, Migration: Clustered, MigrationCost: tu(0.5)},
	} {
		t.Run(fmt.Sprintf("%d-%v", max(opts.CPUs, 1), opts.Migration), func(t *testing.T) {
			ex := NewWithOptions(nil, opts)
			defer ex.Shutdown()
			q := NewWaitQueue("q")
			periodic := func(tc *TC) { tc.Consume(tu(1.5)) }
			waiter := func(tc *TC) {
				for {
					tc.Wait(q)
					tc.Consume(tu(0.5))
				}
			}
			sleeper := func(tc *TC) {
				for {
					tc.Consume(tu(2))
					tc.NotifyAll(q)
					tc.Sleep(tu(1))
				}
			}
			noop := func() {}
			step := func() {
				ex.Reset(nil, opts)
				ex.SpawnPeriodic("p", 3, ActivationSpec{Period: tu(2)}, periodic)
				ex.Spawn("w", 2, 0, waiter)
				ex.Spawn("s", 1, at(0.5), sleeper)
				ex.At(at(100), noop)
				if err := ex.Run(at(9.25)); err != nil {
					t.Fatal(err)
				}
			}
			assertNoAllocs(t, step)
			nodes, workers := ex.timerNodes, ex.PoolPeak()
			for i := 0; i < 50; i++ {
				step()
			}
			if ex.timerNodes != nodes || ex.PoolPeak() != workers {
				t.Errorf("after 50 more resets: %d timer nodes, %d workers; want %d and %d",
					ex.timerNodes, ex.PoolPeak(), nodes, workers)
			}
			if ex.Now() != at(9.25) || len(ex.Threads()) != 3 {
				t.Fatalf("run ended at %v with %d threads", ex.Now(), len(ex.Threads()))
			}
		})
	}
}
