package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// TestPooledBoundedGoroutines is the worker pool's headline property:
// thousands of run-to-completion threads execute on a handful of worker
// goroutines. The peak worker count is the preemption depth (how many
// bodies are suspended mid-execution at once), not the thread count; the
// pinned value is this workload's depth.
func TestPooledBoundedGoroutines(t *testing.T) {
	const n, wantPeak = 2000, 4
	t.Run("direct", func(t *testing.T) {
		before := runtime.NumGoroutine()
		ex := NewWithOptions(nil, Options{})
		rng := newDetRand(7)
		done := 0
		for i := 0; i < n; i++ {
			prio := 1 + rng.next()%4
			start := rtime.Time(rtime.Duration(rng.next()%5000) * rtime.TU / 10)
			cost := rtime.Duration(1+rng.next()%10) * rtime.TU / 10
			ex.Spawn(fmt.Sprintf("job%d", i), prio, start, func(tc *TC) {
				tc.Consume(cost)
				done++
			})
		}
		if err := ex.Run(at(2000)); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
		if done != n {
			t.Fatalf("completed %d of %d jobs", done, n)
		}
		if peak := ex.PoolPeak(); peak != wantPeak {
			t.Errorf("pool peaked at %d workers, want %d", peak, wantPeak)
		}
		// The process never carried anything close to one goroutine
		// per thread.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before+8 && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before+16 {
			t.Errorf("goroutines: before=%d after=%d (pool leaked)", before, after)
		}
	})
}

// TestPoolPeakIsLiveBodies pins the pool's size: it grows to one worker
// per body suspended mid-execution at once, and no further.
func TestPoolPeakIsLiveBodies(t *testing.T) {
	ex := NewWithOptions(nil, Options{})
	// A priority ladder: each thread is preempted mid-consume by the next,
	// so at time 5 all five bodies are live at once.
	for i := 0; i < 5; i++ {
		ex.Spawn(fmt.Sprintf("rung%d", i), 1+i, at(float64(i)), func(tc *TC) {
			tc.Consume(tu(10))
		})
	}
	if err := ex.Run(at(100)); err != nil {
		t.Fatal(err)
	}
	ex.Shutdown()
	if peak := ex.PoolPeak(); peak != 5 {
		t.Errorf("pool peak = %d, want 5 (one per concurrently live body)", peak)
	}
}

// TestPoolAccountingDeterministic runs the same preemption-heavy
// workload repeatedly and requires the same pool peak every time: the
// accounting happens only at synchronous scheduling points, so pool sizes
// are a pure function of the schedule.
func TestPoolAccountingDeterministic(t *testing.T) {
	run := func() int {
		ex := NewWithOptions(nil, Options{})
		rng := newDetRand(11)
		for i := 0; i < 300; i++ {
			prio := 1 + rng.next()%5
			start := rtime.Time(rtime.Duration(rng.next()%600) * rtime.TU / 10)
			cost := rtime.Duration(1+rng.next()%20) * rtime.TU / 10
			ex.Spawn(fmt.Sprintf("j%d", i), prio, start, func(tc *TC) { tc.Consume(cost) })
		}
		if err := ex.Run(at(500)); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
		return ex.PoolPeak()
	}
	peak0 := run()
	for i := 0; i < 5; i++ {
		if peak := run(); peak != peak0 {
			t.Fatalf("run %d: pool peak drifted: %d vs %d", i, peak, peak0)
		}
	}
}

// TestWorkerPanicSurfaces: a panicking body on a pool worker reports its
// error exactly like a dedicated goroutine would.
func TestWorkerPanicSurfaces(t *testing.T) {
	ex := NewWithOptions(nil, Options{})
	ex.Spawn("ok", 2, 0, func(tc *TC) { tc.Consume(tu(1)) })
	ex.Spawn("bad", 1, 0, func(tc *TC) {
		tc.Consume(tu(1))
		panic("boom")
	})
	err := ex.Run(at(10))
	ex.Shutdown()
	if err == nil {
		t.Fatal("panic not surfaced")
	}
}

// TestWithBudgetZeroAndNegative pins the defined semantics of a
// non-positive budget on every executive configuration: the section's
// first Consume unwinds before any CPU is consumed; a section that never
// consumes completes. The channel rows rerun the configurations the
// retired channel kernel was checked on here and also require the schedule
// it produced, committed as "budget/non-positive".
func TestWithBudgetZeroAndNegative(t *testing.T) {
	channelRows := []struct {
		name string
		opts Options
	}{
		{"channel", Options{}},
		{"channel-smp1", Options{CPUs: 1, Migration: Clustered}},
	}
	for i, cfg := range append(channelRows, diffConfigs...) {
		cfg, pinned := cfg, i < len(channelRows)
		t.Run(cfg.name, func(t *testing.T) {
			type outcome struct {
				interrupted bool
				elapsed     rtime.Duration
				reached     bool
			}
			var zero, neg, noConsume outcome
			var afterConsumed rtime.Duration
			ex := NewWithOptions(trace.New(), cfg.opts)
			th := ex.Spawn("srv", 1, 0, func(tc *TC) {
				start := tc.Now()
				zero.interrupted = tc.WithBudget(0, func() {
					tc.Consume(tu(3))
					zero.reached = true
				})
				zero.elapsed = tc.Now().Sub(start)

				start = tc.Now()
				neg.interrupted = tc.WithBudget(tu(-2), func() {
					tc.Consume(tu(3))
					neg.reached = true
				})
				neg.elapsed = tc.Now().Sub(start)

				noConsume.interrupted = tc.WithBudget(0, func() {
					noConsume.reached = true // zero-time work: completes
				})

				// The thread is fully usable after the unwinds.
				tc.Consume(tu(2))
				afterConsumed = tc.Thread().Consumed()
			})
			if err := ex.Run(at(50)); err != nil {
				t.Fatal(err)
			}
			ex.Shutdown()
			for i, o := range []outcome{zero, neg} {
				if !o.interrupted {
					t.Errorf("case %d: non-positive budget must interrupt", i)
				}
				if o.reached {
					t.Errorf("case %d: code after the first Consume ran", i)
				}
				if o.elapsed != 0 {
					t.Errorf("case %d: elapsed = %v, want 0", i, o.elapsed)
				}
			}
			if noConsume.interrupted || !noConsume.reached {
				t.Errorf("consume-free section: interrupted=%v reached=%v, want completed",
					noConsume.interrupted, noConsume.reached)
			}
			if afterConsumed != tu(2) || th.Consumed() != tu(2) {
				t.Errorf("consumed = %v, want 2tu (budgeted consumes must not charge)", th.Consumed())
			}
			if pinned {
				checkPinned(t, "budget/non-positive", ex.Trace().Fingerprint())
			}
		})
	}
}
