package exec

import (
	"fmt"
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Differential tests: every scenario is built identically on every
// executive configuration — the uniprocessor and the one-CPU SMP
// reduction — and must produce trace-for-trace identical schedules — same
// segments, same preemption points, same virtual timestamps, same point
// events, same per-thread accounting. The uniprocessor run is the in-run
// reference, and its trace must also match the committed fingerprint of
// the scenario (fingerprint_test.go), so a schedule change fails even when
// every configuration changes alike.

// diffConfigs is the executive configuration matrix under differential
// test; the first entry is the reference. Both run on the resident worker
// pool, which recycles freed workers inside the scenarios. The smp1 entry
// runs the whole corpus through the M=1 SMP reduction — an explicit CPU
// count and a non-trivial migration policy — which must stay
// byte-identical to the uniprocessor schedules
// (TestSMPM1MatchesUniprocessor pins the same property for every policy).
var diffConfigs = []struct {
	name string
	opts Options
}{
	{"direct", Options{}},
	{"direct-smp1", Options{CPUs: 1, Migration: Partitioned}},
}

// diffRun builds the scenario on every configuration, runs to the horizon,
// compares everything observable against the reference and returns the
// reference trace's fingerprint.
func diffRun(t *testing.T, name string, horizon rtime.Time, build func(ex *Exec)) uint64 {
	t.Helper()
	run := func(opts Options) (*Exec, error) {
		ex := NewWithOptions(trace.New(), opts)
		build(ex)
		err := ex.Run(horizon)
		return ex, err
	}
	ref, refErr := run(diffConfigs[0].opts)
	defer ref.Shutdown()
	for _, cfg := range diffConfigs[1:] {
		got, gotErr := run(cfg.opts)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: reference=%v %s=%v", name, refErr, cfg.name, gotErr)
		}
		compareExecs(t, name+"/"+cfg.name, ref, got)
		got.Shutdown()
	}
	return ref.Trace().Fingerprint()
}

// diffPinned is diffRun plus the check against the scenario's committed
// fingerprint.
func diffPinned(t *testing.T, name string, horizon rtime.Time, build func(ex *Exec)) {
	t.Helper()
	checkPinned(t, name, diffRun(t, name, horizon, build))
}

func compareExecs(t *testing.T, name string, ref, got *Exec) {
	t.Helper()
	compareExecsCPUs(t, name, ref, got, 1)
}

// compareExecsCPUs is compareExecs under an m-CPU occupancy bound: traces
// must still be byte-identical, but up to m segments may overlap.
func compareExecsCPUs(t *testing.T, name string, ref, got *Exec, m int) {
	t.Helper()
	if ref.Now() != got.Now() {
		t.Errorf("%s: final time differs: ref=%v got=%v", name, ref.Now().TUs(), got.Now().TUs())
	}
	a, b := ref.Trace(), got.Trace()
	if err := b.CheckCPUs(m); err != nil {
		t.Errorf("%s: trace invalid: %v", name, err)
	}
	if len(a.Segments) != len(b.Segments) {
		t.Errorf("%s: segment counts differ: ref=%d got=%d\nref:\n%s\ngot:\n%s",
			name, len(a.Segments), len(b.Segments),
			a.Gantt(trace.GanttOptions{}), b.Gantt(trace.GanttOptions{}))
		return
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Errorf("%s: segment %d differs: ref=%+v got=%+v", name, i, a.Segments[i], b.Segments[i])
			return
		}
	}
	if len(a.Events) != len(b.Events) {
		t.Errorf("%s: event counts differ: ref=%d got=%d", name, len(a.Events), len(b.Events))
		return
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Errorf("%s: event %d differs: ref=%+v got=%+v", name, i, a.Events[i], b.Events[i])
			return
		}
	}
	for i := range ref.threads {
		ta, tb := ref.threads[i], got.threads[i]
		if ta.Name() != tb.Name() || ta.Consumed() != tb.Consumed() || ta.Done() != tb.Done() {
			t.Errorf("%s: thread %s accounting differs: ref consumed=%v done=%v, got consumed=%v done=%v",
				name, ta.Name(), ta.Consumed(), ta.Done(), tb.Consumed(), tb.Done())
		}
	}
}

func TestKernelDiffPreemptionAndFIFO(t *testing.T) {
	diffPinned(t, "preemption", at(20), func(ex *Exec) {
		ex.Spawn("lo", 1, 0, func(tc *TC) { tc.Consume(tu(6)) })
		ex.Spawn("hi", 2, at(2), func(tc *TC) { tc.Consume(tu(2)) })
		ex.Spawn("peer-a", 1, 0, func(tc *TC) { tc.Consume(tu(1)) })
		ex.Spawn("peer-b", 1, 0, func(tc *TC) { tc.Consume(tu(1)) })
	})
}

func TestKernelDiffSleepWaitNotify(t *testing.T) {
	diffPinned(t, "sleep-wait-notify", at(30), func(ex *Exec) {
		q := NewWaitQueue("q")
		ex.Spawn("periodic", 3, 0, func(tc *TC) {
			next := rtime.Time(0)
			for i := 0; i < 4; i++ {
				tc.Consume(tu(1))
				next = next.Add(tu(5))
				tc.SleepUntil(next)
			}
		})
		ex.Spawn("waiter", 2, 0, func(tc *TC) {
			tc.Wait(q)
			tc.Consume(tu(2))
		})
		ex.Spawn("notifier", 1, 0, func(tc *TC) {
			tc.Consume(tu(4))
			tc.NotifyAll(q)
			tc.Consume(tu(1))
		})
	})
}

func TestKernelDiffBudgetInterrupt(t *testing.T) {
	diffPinned(t, "budget", at(30), func(ex *Exec) {
		ex.Spawn("timerd", 9, at(1), func(tc *TC) { tc.Consume(tu(1)) })
		ex.Spawn("srv", 1, 0, func(tc *TC) {
			tc.WithBudget(tu(3), func() { tc.Consume(tu(3)) }) // wall-clock: interrupted
			tc.WithBudget(tu(5), func() { tc.Consume(tu(2)) }) // completes
		})
	})
}

func TestKernelDiffMutexPriorityInheritance(t *testing.T) {
	diffPinned(t, "mutex-pi", at(40), func(ex *Exec) {
		m := NewMutex("m")
		ex.Spawn("low", 1, 0, func(tc *TC) {
			tc.WithLock(m, func() { tc.Consume(tu(5)) })
			tc.Consume(tu(1))
		})
		ex.Spawn("mid", 2, at(1), func(tc *TC) { tc.Consume(tu(3)) })
		ex.Spawn("high", 3, at(2), func(tc *TC) {
			tc.WithLock(m, func() { tc.Consume(tu(1)) })
		})
	})
}

func TestKernelDiffSpawnFromThreadAndHorizonDrain(t *testing.T) {
	diffPinned(t, "spawn-horizon", at(5), func(ex *Exec) {
		ex.Spawn("parent", 1, 0, func(tc *TC) {
			tc.Consume(tu(1))
			tc.Exec().Spawn("child", 2, tc.Now(), func(tc2 *TC) {
				tc2.Consume(tu(2))
			})
			tc.Consume(tu(10)) // still mid-consume at the horizon
		})
	})
}

func TestKernelDiffRunContinuation(t *testing.T) {
	// Three Run calls: threads parked mid-consume at a horizon must
	// continue identically in the next window on every configuration.
	build := func(ex *Exec) {
		ex.Spawn("a", 2, 0, func(tc *TC) {
			for i := 0; i < 3; i++ {
				tc.Consume(tu(4))
				tc.Sleep(tu(2))
			}
		})
		ex.Spawn("b", 1, 0, func(tc *TC) { tc.Consume(tu(9)) })
	}
	ref := NewWithOptions(trace.New(), Options{})
	build(ref)
	others := make([]*Exec, 0, len(diffConfigs)-1)
	for _, cfg := range diffConfigs[1:] {
		ex := NewWithOptions(trace.New(), cfg.opts)
		build(ex)
		others = append(others, ex)
	}
	for _, horizon := range []rtime.Time{at(5), at(11), at(40)} {
		if err := ref.Run(horizon); err != nil {
			t.Fatal(err)
		}
		checkPinned(t, fmt.Sprintf("continuation@%v", horizon.TUs()), ref.Trace().Fingerprint())
		for i, ex := range others {
			if err := ex.Run(horizon); err != nil {
				t.Fatal(err)
			}
			compareExecs(t, fmt.Sprintf("continuation@%v/%s", horizon.TUs(), diffConfigs[i+1].name), ref, ex)
		}
	}
	ref.Shutdown()
	for _, ex := range others {
		ex.Shutdown()
	}
}

// TestKernelDiffFuzz runs randomized thread/priority workloads through every
// configuration: random mixes of consume, sleep, contended locking and
// budgeted sections across threads with random priorities and release
// offsets. The reference fingerprints of all trials, folded in trial order,
// must match the committed value for the trial count.
func TestKernelDiffFuzz(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	combined := uint64(14695981039346656037)
	for trial := 0; trial < trials; trial++ {
		rng := newDetRand(uint64(4000 + trial))
		n := 2 + rng.next()%6
		type op struct {
			kind  int // 0 consume, 1 sleep, 2 lock+consume, 3 budget+consume, 4 wait, 5 notify
			dur   rtime.Duration
			mutex int
		}
		plans := make([][]op, n)
		prios := make([]int, n)
		starts := make([]rtime.Time, n)
		for i := 0; i < n; i++ {
			prios[i] = 1 + rng.next()%4
			starts[i] = rtime.Time(rtime.Duration(rng.next()%12) * rtime.TU / 2)
			steps := 1 + rng.next()%6
			for s := 0; s < steps; s++ {
				plans[i] = append(plans[i], op{
					kind:  rng.next() % 6,
					dur:   rtime.Duration(1+rng.next()%40) * rtime.TU / 10,
					mutex: rng.next() % 2,
				})
			}
		}
		fp := diffRun(t, fmt.Sprintf("fuzz-%d", trial), at(100), func(ex *Exec) {
			ms := []*Mutex{NewMutex("m0"), NewMutex("m1")}
			q := NewWaitQueue("fq")
			for i := 0; i < n; i++ {
				plan := plans[i]
				ex.Spawn(fmt.Sprintf("f%d", i), prios[i], starts[i], func(tc *TC) {
					for _, o := range plan {
						switch o.kind {
						case 0:
							tc.Consume(o.dur)
						case 1:
							tc.Sleep(o.dur)
						case 2:
							tc.WithLock(ms[o.mutex], func() { tc.Consume(o.dur) })
						case 3:
							tc.WithBudget(o.dur, func() { tc.Consume(o.dur + o.dur/2) })
						case 4:
							tc.NotifyAll(q) // wake anyone parked before us, then park
							tc.Wait(q)
						case 5:
							tc.NotifyAll(q)
							tc.Consume(o.dur / 2)
						}
					}
					tc.NotifyAll(q) // do not strand waiters at exit
				})
			}
		})
		if t.Failed() {
			t.Fatalf("fuzz trial %d diverged (seed %d)", trial, 4000+trial)
		}
		combined = (combined ^ fp) * 1099511628211
	}
	checkPinned(t, fmt.Sprintf("fuzz/%d-trials", trials), combined)
}

// TestKernelDiffSameInstantCancel pins the edge where a timer fn cancels
// another timer due at the same instant: a cancelled timer never fires,
// even when it was already due when the firing pass began.
func TestKernelDiffSameInstantCancel(t *testing.T) {
	ex := NewWithOptions(nil, Options{})
	fired := false
	var victim Timer
	ex.At(at(5), func() { victim.Cancel() })
	victim = ex.At(at(5), func() { fired = true })
	if err := ex.Run(at(10)); err != nil {
		t.Fatal(err)
	}
	ex.Shutdown()
	if fired {
		t.Error("timer cancelled at its own instant still fired")
	}
	// And the schedules around such a cancellation stay identical.
	diffPinned(t, "same-instant-cancel", at(20), func(ex *Exec) {
		e := ex
		var notify Timer
		q := NewWaitQueue("q")
		ex.Spawn("victim", 2, 0, func(tc *TC) {
			tc.Wait(q)
			tc.Consume(tu(1))
		})
		e.At(at(5), func() { notify.Cancel() })
		notify = e.At(at(5), func() { e.NotifyAll(q) })
		e.At(at(7), func() { e.NotifyAll(q) })
		ex.Spawn("busy", 1, 0, func(tc *TC) { tc.Consume(tu(12)) })
	})
}
