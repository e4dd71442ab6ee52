package exec

import (
	"fmt"
	"testing"

	"rtsj/internal/faults"
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Miss-policy tests: the three deterministic overrun policies (MissSkip,
// MissContinueLate, MissAbort) must behave identically on every executive
// configuration, and the two periodic emulation styles (looping thread vs
// activation entity) must stay schedule-identical per policy.

// continueLateLoop expresses a ContinueLate periodic as a looping thread:
// advance exactly one period per release (counting it late when past due)
// and sleep — a past-due sleep is an immediate deterministic re-queue, the
// same kernel-call sequence the activation rearm issues for the policy.
func continueLateLoop(ex *Exec, name string, prio int, start rtime.Time, period rtime.Duration,
	work func(tc *TC, k int), missed *int) {
	first := start
	if now := ex.Now(); first < now {
		first = now
	}
	ex.Spawn(name, prio, first, func(tc *TC) {
		next := first
		for k := 0; ; k++ {
			work(tc, k)
			next = next.Add(period)
			if next < tc.Now() {
				if missed != nil {
					*missed++
				}
			}
			tc.SleepUntil(next)
		}
	})
}

// TestMissContinueLateLoopActivationParity overruns a ContinueLate
// periodic (every third release costs 2.5 periods) and requires the loop
// and activation formulations to be trace-identical on every
// configuration, with matching late counts.
func TestMissContinueLateLoopActivationParity(t *testing.T) {
	const period = 4.0
	work := func(tc *TC, k int) {
		c := tu(1)
		if k%3 == 0 {
			c = tu(2.5 * period)
		}
		tc.Consume(c)
	}
	type outcome struct {
		ex     *Exec
		missed int
	}
	run := func(opts Options, activation bool) outcome {
		t.Helper()
		ex := NewWithOptions(trace.New(), opts)
		o := outcome{ex: ex}
		// A higher-priority periodic guarantees the overrunner is also
		// preempted, not just late on its own.
		ex.SpawnPeriodic("hi", 10, ActivationSpec{Period: tu(6)}, func(tc *TC) { tc.Consume(tu(0.5)) })
		var th *Thread
		if activation {
			k := 0
			th = ex.SpawnPeriodic("late", 5, ActivationSpec{Period: tu(period), Miss: MissContinueLate},
				func(tc *TC) { work(tc, k); k++ })
		} else {
			continueLateLoop(ex, "late", 5, 0, tu(period), work, &o.missed)
		}
		if err := ex.Run(at(100)); err != nil {
			t.Fatal(err)
		}
		if th != nil {
			o.missed = th.MissedActivations()
		}
		if err := ex.CheckInvariants(); err != nil {
			t.Errorf("invariants: %v", err)
		}
		return o
	}
	ref := run(diffConfigs[0].opts, false)
	defer ref.ex.Shutdown()
	if ref.missed == 0 {
		t.Fatal("scenario produced no late release: not exercising ContinueLate")
	}
	checkPinned(t, "miss/continue-late", ref.ex.Trace().Fingerprint())
	for i, cfg := range diffConfigs {
		for _, activation := range []bool{false, true} {
			if i == 0 && !activation {
				continue // the reference itself
			}
			label := fmt.Sprintf("%s-act=%v", cfg.name, activation)
			got := run(cfg.opts, activation)
			compareExecs(t, label, ref.ex, got.ex)
			if got.missed != ref.missed {
				t.Errorf("%s: late count %d, ref %d", label, got.missed, ref.missed)
			}
			got.ex.Shutdown()
		}
	}
}

// TestMissAbortCutsOverrunningBodies runs a MissAbort activation entity
// whose body periodically overruns: the overrunning releases must be cut
// at the next release boundary (aborted, not late, not skipped), the
// well-behaved releases must complete, and the schedule must be identical
// on every executive configuration.
func TestMissAbortCutsOverrunningBodies(t *testing.T) {
	const period = 5.0
	run := func(opts Options) (*Exec, *Thread, int) {
		t.Helper()
		ex := NewWithOptions(trace.New(), opts)
		completed := 0
		k := 0
		th := ex.SpawnPeriodic("ab", 5, ActivationSpec{Period: tu(period), Miss: MissAbort},
			func(tc *TC) {
				myK := k
				k++
				if myK%4 == 1 {
					tc.Consume(tu(3 * period)) // overrun: must be aborted
				} else {
					tc.Consume(tu(1))
				}
				completed++
			})
		if err := ex.Run(at(80)); err != nil {
			t.Fatal(err)
		}
		if err := ex.CheckInvariants(); err != nil {
			t.Errorf("invariants: %v", err)
		}
		return ex, th, completed
	}
	ref, refTh, refDone := run(diffConfigs[0].opts)
	defer ref.Shutdown()
	checkPinned(t, "miss/abort", ref.Trace().Fingerprint())
	if refTh.AbortedActivations() == 0 {
		t.Fatal("no activation aborted: not exercising MissAbort")
	}
	if refDone == 0 {
		t.Fatal("no activation completed")
	}
	// An aborted body is cut at its release boundary: the entity never
	// skips releases under MissAbort (the budget expires exactly at the
	// next release, so the rearm finds nextRel >= now).
	if refTh.MissedActivations() != 0 {
		t.Errorf("MissAbort skipped %d releases; aborts should keep the release grid", refTh.MissedActivations())
	}
	for _, cfg := range diffConfigs[1:] {
		got, gotTh, gotDone := run(cfg.opts)
		compareExecs(t, cfg.name, ref, got)
		if gotTh.AbortedActivations() != refTh.AbortedActivations() {
			t.Errorf("%s: aborted %d, ref %d", cfg.name, gotTh.AbortedActivations(), refTh.AbortedActivations())
		}
		if gotDone != refDone {
			t.Errorf("%s: completed %d, ref %d", cfg.name, gotDone, refDone)
		}
		got.Shutdown()
	}
}

// TestMissPolicyString pins the textual names.
func TestMissPolicyString(t *testing.T) {
	for p, want := range map[MissPolicy]string{
		MissSkip: "skip", MissContinueLate: "continue-late", MissAbort: "abort",
	} {
		if got := p.String(); got != want {
			t.Errorf("MissPolicy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

// TestWithBudgetUnderInjectedOverruns drives WithBudget with actual costs
// drawn from a seeded fault plan, on every executive configuration:
// a job must be interrupted exactly when its faulted cost exceeds the
// budget, and the outcome sequence must be configuration-independent.
func TestWithBudgetUnderInjectedOverruns(t *testing.T) {
	plan := &faults.Plan{Seed: 42, OverrunProb: 0.5, OverrunMax: 2}
	const jobs = 40
	budget := tu(2)
	declared := tu(1.2)
	run := func(opts Options) (fp uint64, interrupted int) {
		t.Helper()
		ex := NewWithOptions(nil, opts)
		fp = 14695981039346656037
		// Releases spaced so jobs never overlap: the budget clock is
		// wall-clock, so isolation makes "interrupted" a pure function of
		// the faulted cost.
		for i := 0; i < jobs; i++ {
			i := i
			actual := plan.JobFault(0, i).Apply(declared)
			ex.Spawn(fmt.Sprintf("j%d", i), 5, at(float64(i*10)), func(tc *TC) {
				cut := tc.WithBudget(budget, func() { tc.Consume(actual) })
				if cut != (actual > budget) {
					t.Errorf("job %d: interrupted=%v for actual=%v budget=%v", i, cut, actual, budget)
				}
				if cut {
					interrupted++
				}
				fp = (fp ^ uint64(i)) * 1099511628211
				fp = (fp ^ uint64(tc.Now())) * 1099511628211
				if cut {
					fp = (fp ^ 1) * 1099511628211
				}
			})
		}
		if err := ex.Run(at(jobs * 10)); err != nil {
			t.Fatal(err)
		}
		if err := ex.CheckInvariants(); err != nil {
			t.Errorf("invariants: %v", err)
		}
		ex.Shutdown()
		return fp, interrupted
	}
	refFP, refInt := run(diffConfigs[0].opts)
	if refInt == 0 || refInt == jobs {
		t.Fatalf("degenerate overrun draw: %d of %d interrupted", refInt, jobs)
	}
	checkPinned(t, "miss/budget-overruns", refFP)
	for _, cfg := range diffConfigs[1:] {
		fp, n := run(cfg.opts)
		if fp != refFP || n != refInt {
			t.Errorf("%s: fp=%#x interrupted=%d; ref fp=%#x interrupted=%d", cfg.name, fp, n, refFP, refInt)
		}
	}
}
