package exec

import (
	"fmt"
	"runtime"
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Differential tests for the activation-driven periodic dispatch path: a
// periodic workload expressed as SpawnPeriodic activations must be
// trace-for-trace identical to the same workload expressed as looping
// Spawn threads (work; sleep-until-next-release), on every executive
// configuration (diffConfigs), with the per-thread loop as the reference.

// periodicEntity is one periodic workload item, buildable either as a
// looping thread or as an activation entity.
type periodicEntity struct {
	name   string
	prio   int
	start  rtime.Time
	period rtime.Duration
	// work runs once per release; k is the activation index.
	work func(tc *TC, k int)
}

// buildLoop expresses e as a classic looping thread: the reference
// formulation, including WaitForNextPeriod's skip-and-count overrun
// handling. missed receives the loop's skip count (may be nil).
func (e periodicEntity) buildLoop(ex *Exec, missed *int) {
	// The release grid anchors at the spawn-time first release (as
	// rtsjvm.NewRealtimeThread does), NOT at Now() when the body first
	// executes — that may already be later if higher-priority work ran.
	first := e.start
	if now := ex.Now(); first < now {
		first = now
	}
	ex.Spawn(e.name, e.prio, first, func(tc *TC) {
		next := first
		for k := 0; ; k++ {
			e.work(tc, k)
			next = next.Add(e.period)
			for next < tc.Now() {
				next = next.Add(e.period)
				if missed != nil {
					*missed++
				}
			}
			tc.SleepUntil(next)
		}
	})
}

// buildActivation expresses e as an activation-driven entity.
func (e periodicEntity) buildActivation(ex *Exec) *Thread {
	k := 0
	return ex.SpawnPeriodic(e.name, e.prio, ActivationSpec{Start: e.start, Period: e.period}, func(tc *TC) {
		e.work(tc, k)
		k++
	})
}

// activationDiffRun builds the scenario in both formulations on every
// executive configuration and compares everything observable against the
// per-thread loop formulation, whose trace must match the committed
// fingerprint "activation/<name>".
func activationDiffRun(t *testing.T, name string, horizon rtime.Time,
	entities []periodicEntity, extra func(ex *Exec)) {
	t.Helper()
	run := func(opts Options, activation bool) *Exec {
		t.Helper()
		ex := NewWithOptions(trace.New(), opts)
		for _, e := range entities {
			if activation {
				e.buildActivation(ex)
			} else {
				e.buildLoop(ex, nil)
			}
		}
		if extra != nil {
			extra(ex)
		}
		if err := ex.Run(horizon); err != nil {
			t.Fatalf("%s: run failed on %+v/activation=%v: %v", name, opts, activation, err)
		}
		return ex
	}
	ref := run(diffConfigs[0].opts, false)
	defer ref.Shutdown()
	checkPinned(t, "activation/"+name, ref.Trace().Fingerprint())
	for i, cfg := range diffConfigs {
		for _, activation := range []bool{false, true} {
			if i == 0 && !activation {
				continue // the reference itself
			}
			label := fmt.Sprintf("%s/%s-act=%v", name, cfg.name, activation)
			got := run(cfg.opts, activation)
			compareExecs(t, label, ref, got)
			got.Shutdown()
		}
	}
}

func TestActivationDiffBasicPeriodic(t *testing.T) {
	activationDiffRun(t, "basic", at(40), []periodicEntity{
		{"p1", 5, 0, tu(5), func(tc *TC, _ int) { tc.Consume(tu(1)) }},
		{"p2", 3, at(1), tu(7), func(tc *TC, _ int) { tc.Consume(tu(2)) }},
	}, nil)
}

func TestActivationDiffPreemptionAndSporadics(t *testing.T) {
	activationDiffRun(t, "preempt", at(60), []periodicEntity{
		{"hi", 8, 0, tu(4), func(tc *TC, _ int) { tc.Consume(tu(1)) }},
		{"lo", 2, 0, tu(9), func(tc *TC, _ int) { tc.Consume(tu(4)) }},
	}, func(ex *Exec) {
		ex.Spawn("oneshot-a", 5, at(3), func(tc *TC) { tc.Consume(tu(2)) })
		ex.Spawn("oneshot-b", 5, at(17), func(tc *TC) { tc.Consume(tu(3)) })
	})
}

func TestActivationDiffOverrunSkips(t *testing.T) {
	// The first activation overruns two whole periods; the entity must skip
	// the missed releases (counting them) and resume on the grid.
	activationDiffRun(t, "overrun", at(50), []periodicEntity{
		{"over", 5, 0, tu(4), func(tc *TC, k int) {
			if k == 0 {
				tc.Consume(tu(9))
			} else {
				tc.Consume(tu(1))
			}
		}},
	}, nil)
}

func TestActivationDiffZeroWorkAndExactBoundary(t *testing.T) {
	activationDiffRun(t, "boundary", at(30), []periodicEntity{
		// Zero-work body: rearm must still advance the release grid.
		{"idle", 4, 0, tu(3), func(tc *TC, _ int) {}},
		// Work that ends exactly on the next release (next == now in the
		// skip loop): the entity re-queues ready without a timer.
		{"exact", 2, 0, tu(5), func(tc *TC, _ int) { tc.Consume(tu(10)) }},
	}, nil)
}

func TestActivationDiffBlockingBody(t *testing.T) {
	// An activation body that blocks mid-release (sleep and wait/notify):
	// its worker parks and resumes like any thread's goroutine.
	q := func(ex *Exec) *WaitQueue { return NewWaitQueue("aq") }
	_ = q
	activationDiffRun(t, "blocking", at(60), []periodicEntity{
		{"napper", 6, 0, tu(10), func(tc *TC, _ int) {
			tc.Consume(tu(1))
			tc.Sleep(tu(2))
			tc.Consume(tu(1))
		}},
		{"busy", 1, 0, tu(6), func(tc *TC, _ int) { tc.Consume(tu(3)) }},
	}, nil)
}

func TestActivationMissedCountMatchesLoop(t *testing.T) {
	e := periodicEntity{"over", 5, 0, tu(4), func(tc *TC, k int) {
		if k%3 == 0 {
			tc.Consume(tu(13)) // overruns three releases
		} else {
			tc.Consume(tu(1))
		}
	}}
	loopMissed := 0
	exL := New(nil)
	e.buildLoop(exL, &loopMissed)
	if err := exL.Run(at(100)); err != nil {
		t.Fatal(err)
	}
	exL.Shutdown()

	for _, cfg := range diffConfigs {
		ex := NewWithOptions(nil, cfg.opts)
		th := e.buildActivation(ex)
		if err := ex.Run(at(100)); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
		if th.MissedActivations() != loopMissed {
			t.Errorf("%s: activation missed %d releases, loop missed %d",
				cfg.name, th.MissedActivations(), loopMissed)
		}
		if loopMissed == 0 {
			t.Error("scenario never overran; test is vacuous")
		}
		if !th.Periodic() {
			t.Errorf("%s: thread not marked periodic", cfg.name)
		}
	}
}

func TestActivationRunContinuation(t *testing.T) {
	// Activations must survive multiple Run windows: entities sleeping
	// between releases at a horizon resume identically in the next window.
	entities := []periodicEntity{
		{"a", 4, 0, tu(5), func(tc *TC, _ int) { tc.Consume(tu(2)) }},
		{"b", 2, at(1), tu(7), func(tc *TC, _ int) { tc.Consume(tu(3)) }},
	}
	build := func(ex *Exec, activation bool) {
		for _, e := range entities {
			if activation {
				e.buildActivation(ex)
			} else {
				e.buildLoop(ex, nil)
			}
		}
	}
	ref := New(trace.New())
	build(ref, false)
	type variant struct {
		label string
		ex    *Exec
	}
	var others []variant
	for _, cfg := range diffConfigs {
		ex := NewWithOptions(trace.New(), cfg.opts)
		build(ex, true)
		others = append(others, variant{cfg.name + "-act", ex})
	}
	for _, horizon := range []rtime.Time{at(4), at(11), at(12), at(50)} {
		if err := ref.Run(horizon); err != nil {
			t.Fatal(err)
		}
		for _, v := range others {
			if err := v.ex.Run(horizon); err != nil {
				t.Fatal(err)
			}
			compareExecs(t, fmt.Sprintf("continuation@%v/%s", horizon.TUs(), v.label), ref, v.ex)
		}
	}
	ref.Shutdown()
	for _, v := range others {
		v.ex.Shutdown()
	}
}

func TestActivationBodyPanicTerminates(t *testing.T) {
	for _, cfg := range diffConfigs {
		ex := NewWithOptions(nil, cfg.opts)
		runs := 0
		th := ex.SpawnPeriodic("boom", 5, ActivationSpec{Period: tu(2)}, func(tc *TC) {
			runs++
			tc.Consume(tu(1))
			if runs == 3 {
				panic("third activation explodes")
			}
		})
		err := ex.Run(at(20))
		ex.Shutdown()
		if err == nil {
			t.Fatalf("%s: run did not surface the body panic", cfg.name)
		}
		if runs != 3 {
			t.Errorf("%s: body ran %d times, want 3 (panic must stop releases)", cfg.name, runs)
		}
		if !th.Done() {
			t.Errorf("%s: panicked activation entity not terminated", cfg.name)
		}
		if th.Err() == nil {
			t.Errorf("%s: thread error not recorded", cfg.name)
		}
	}
}

func TestActivationGoroutineFootprint(t *testing.T) {
	// Many periodic entities: the goroutine count is bounded by the pool,
	// not the entity count — the whole point of the activation path.
	const n = 400
	before := runtime.NumGoroutine()
	ex := New(nil)
	done := 0
	for i := 0; i < n; i++ {
		prio := 2 + i%5
		ex.SpawnPeriodic(fmt.Sprintf("p%d", i), prio,
			ActivationSpec{Start: rtime.Time(rtime.TUs(float64(i % 50))), Period: tu(100)},
			func(tc *TC) { tc.Consume(tu(0.1)); done++ })
	}
	if err := ex.Run(at(500)); err != nil {
		t.Fatal(err)
	}
	// No release preempts another, so every activation reuses one worker.
	if peak := ex.PoolPeak(); peak != 1 {
		t.Errorf("pool peaked at %d workers for %d entities, want 1", peak, n)
	}
	if done < n {
		t.Errorf("only %d of %d entities ever activated", done, n)
	}
	ex.Shutdown()
	if after := runtime.NumGoroutine(); after > before+4 {
		t.Errorf("goroutines leaked: before=%d after=%d", before, after)
	}
}

func TestSpawnPeriodicValidation(t *testing.T) {
	ex := New(nil)
	defer ex.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("SpawnPeriodic with non-positive period did not panic")
		}
	}()
	ex.SpawnPeriodic("bad", 1, ActivationSpec{Period: 0}, func(tc *TC) {})
}
