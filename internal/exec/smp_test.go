package exec

import (
	"fmt"
	"sync/atomic"
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// SMP differential tests: every multiprocessor scenario is built
// identically on {per-thread, activation} x M in {1, 2, 4} and must
// produce trace-for-trace identical schedules, with the per-thread
// configuration as the M-CPU reference, whose trace must match
// its committed fingerprint. The M=1 runs must additionally match the
// plain uniprocessor executive byte for byte
// (TestSMPM1MatchesUniprocessor).

// smpScenario builds one workload. activation selects the dispatch
// formulation for its periodic entities (SpawnPeriodic vs a looping
// Spawn body) — the two must be schedule-identical, so the scenario is
// compared across that axis too. parallel is the most CPUs the workload
// can keep busy at once (0: as many as it is given).
type smpScenario struct {
	name     string
	horizon  rtime.Time
	parallel int
	build    func(ex *Exec, activation bool)
}

// smpPeriodic spawns a periodic entity in either formulation with the
// exact kernel-call sequence the activation rearm issues, so the two modes
// stay trace-identical (the property TestActivationDiff* pins at M=1).
func smpPeriodic(ex *Exec, name string, prio int, period, cost rtime.Duration, activation bool) {
	if activation {
		ex.SpawnPeriodic(name, prio, ActivationSpec{Period: period}, func(tc *TC) {
			tc.Consume(cost)
		})
		return
	}
	ex.Spawn(name, prio, 0, func(tc *TC) {
		next := rtime.Time(0)
		for {
			tc.Consume(cost)
			next = next.Add(period)
			for next < tc.Now() {
				next = next.Add(period)
			}
			tc.SleepUntil(next)
		}
	})
}

var smpCorpus = []smpScenario{
	{"parallel-periodics", at(40), 0, func(ex *Exec, activation bool) {
		// More ready work than CPUs at every instant: occupancy, placement
		// and preemption all exercised.
		for i := 0; i < 6; i++ {
			smpPeriodic(ex, fmt.Sprintf("p%d", i), 2+i%3,
				tu(float64(5+2*i)), tu(float64(2+i%4)), activation)
		}
	}},
	{"sporadic-burst", at(60), 0, func(ex *Exec, activation bool) {
		// One-shot jobs arriving in bursts over a periodic base load, with
		// same-instant releases forcing the (instant, CPU, prio, spawn
		// order) tie-break.
		smpPeriodic(ex, "base", 1, tu(7), tu(3), activation)
		rng := newDetRand(99)
		for i := 0; i < 16; i++ {
			cost := tu(float64(1+rng.next()%30) / 10)
			prio := 2 + rng.next()%4
			rel := at(float64((i / 4) * 9)) // four jobs per burst instant
			ex.Spawn(fmt.Sprintf("j%d", i), prio, rel, func(tc *TC) {
				tc.Consume(cost)
			})
		}
	}},
	{"mutex-across-cpus", at(50), 3, func(ex *Exec, activation bool) {
		// A lock shared by threads that may run on different CPUs: priority
		// inheritance and the serialization it forces must replay
		// identically. The lock holder, one contender past its critical
		// section and the background entity are the most that run at once.
		mx := NewMutex("m")
		for i := 0; i < 4; i++ {
			prio := 1 + i
			start := at(float64(i))
			ex.Spawn(fmt.Sprintf("c%d", i), prio, start, func(tc *TC) {
				tc.WithLock(mx, func() { tc.Consume(tu(3)) })
				tc.Consume(tu(1))
			})
		}
		smpPeriodic(ex, "bg", 1, tu(11), tu(4), activation)
	}},
}

// smpDiffConfigs is the executive matrix each SMP scenario runs on; the
// first entry is the reference.
var smpDiffConfigs = []struct {
	name       string
	activation bool
}{
	{"direct/thread", false},
	{"direct/activation", true},
}

// smpCPUs are the CPU counts each SMP scenario runs at.
var smpCPUs = []int{1, 2, 4}

// TestSMPDiffCorpus runs every SMP scenario at every CPU count and
// requires trace-for-trace identity with the per-thread reference at the
// same M, the reference's committed fingerprint, a valid m-CPU occupancy,
// and a clean invariant net. Above one CPU the reference must also use
// the CPUs it is given — its schedule must not fit on one CPU fewer (on
// the workload's own parallelism where that is lower) — and migrate, so
// the fingerprint guards the multi-CPU placement. The subtests keep the
// "global" segment of the placement policy that was the only one kept.
func TestSMPDiffCorpus(t *testing.T) {
	for _, sc := range smpCorpus {
		for _, m := range smpCPUs {
			sc, m := sc, m
			key := fmt.Sprintf("%s/global/m%d", sc.name, m)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				run := func(cfg int) *Exec {
					c := smpDiffConfigs[cfg]
					ex := NewWithOptions(trace.New(), Options{CPUs: m})
					sc.build(ex, c.activation)
					if err := ex.Run(sc.horizon); err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					if err := ex.CheckInvariants(); err != nil {
						t.Errorf("%s: %v", c.name, err)
					}
					return ex
				}
				ref := run(0)
				defer ref.Shutdown()
				if err := ref.Trace().CheckCPUs(m); err != nil {
					t.Errorf("reference trace invalid: %v", err)
				}
				if m > 1 {
					busy := m
					if sc.parallel > 0 {
						busy = min(m, sc.parallel)
					}
					if ref.Trace().CheckCPUs(busy-1) == nil {
						t.Errorf("schedule fits on %d CPUs: the pin does not exercise %d in parallel", busy-1, busy)
					}
					if ref.Migrations() == 0 {
						t.Error("no thread migrated: the pin does not exercise placement")
					}
				}
				if fp := ref.Trace().Fingerprint(); fp != smpCorpusFingerprints[key] {
					t.Errorf("reference schedule fingerprint %#x, committed %#x", fp, smpCorpusFingerprints[key])
				}
				for cfg := 1; cfg < len(smpDiffConfigs); cfg++ {
					got := run(cfg)
					compareExecsCPUs(t, smpDiffConfigs[cfg].name, ref, got, m)
					got.Shutdown()
				}
			})
		}
	}
}

// TestSMPM1MatchesUniprocessor pins the core reduction: for every scenario
// in the SMP corpus, an executive configured with CPUs=1 and a migration
// cost is byte-identical — segments, events, final time, per-thread
// accounting — to the plain uniprocessor executive (Options zero value).
// The direct subtests compare the two runs with each other; the channel
// subtests require both to reproduce the M=1 schedule the retired channel
// kernel produced, as committed in smpCorpusFingerprints. The smp1 entries
// of diffConfigs and vmDiffConfigs extend the same property over the
// entire pre-SMP differential corpus.
func TestSMPM1MatchesUniprocessor(t *testing.T) {
	for _, sc := range smpCorpus {
		sc := sc
		run := func(t *testing.T, opts Options) *Exec {
			ex := NewWithOptions(trace.New(), opts)
			sc.build(ex, false)
			if err := ex.Run(sc.horizon); err != nil {
				t.Fatal(err)
			}
			return ex
		}
		smpOpts := Options{CPUs: 1, MigrationCost: tu(1)}
		t.Run(sc.name+"/direct/global", func(t *testing.T) {
			t.Parallel()
			uni := run(t, Options{})
			smp := run(t, smpOpts)
			compareExecs(t, "m1", uni, smp)
			if smp.Migrations() != 0 {
				t.Errorf("M=1 run migrated %d times", smp.Migrations())
			}
			uni.Shutdown()
			smp.Shutdown()
		})
		t.Run(sc.name+"/channel/global", func(t *testing.T) {
			t.Parallel()
			key := sc.name + "/global/m1"
			want, ok := smpCorpusFingerprints[key]
			if !ok {
				t.Fatalf("%s: no committed fingerprint", key)
			}
			for _, c := range []struct {
				label string
				opts  Options
			}{{"uniprocessor", Options{}}, {"m1", smpOpts}} {
				ex := run(t, c.opts)
				if fp := ex.Trace().Fingerprint(); fp != want {
					t.Errorf("%s run: schedule fingerprint %#x, committed %#x", c.label, fp, want)
				}
				ex.Shutdown()
			}
		})
	}
}

// TestSMPDiffFuzz drives randomized workloads — random thread counts,
// priorities, costs, migration costs and CPU counts — through the
// configuration matrix: every configuration must match the per-thread
// reference trace-for-trace, the reference must match the trial's
// committed fingerprint, and rerunning it must reproduce it exactly
// (determinism across reruns). At least one trial must migrate a thread.
func TestSMPDiffFuzz(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	// Checked only when every trial ran, so a -run filter that selects a
	// few one-CPU trials does not fail.
	var ran, migrated atomic.Int64
	t.Cleanup(func() {
		if !t.Failed() && ran.Load() == int64(trials) && migrated.Load() == 0 {
			t.Error("no trial migrated a thread: the pins do not exercise placement")
		}
	})
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := newDetRand(uint64(7000 + trial))
			m := 1 << (rng.next() % 3) // 1, 2 or 4 CPUs
			// The next draw once chose a migration policy; it stays so each
			// trial sees the stream its fingerprint was captured from.
			rng.next()
			cost := rtime.Duration(rng.next()%2) * tu(1) / 4 // migration cost 0 or 0.25tu
			n := 3 + rng.next()%8
			type plan struct {
				prio   int
				start  rtime.Time
				period rtime.Duration // 0: one-shot
				cost   rtime.Duration
			}
			plans := make([]plan, n)
			for i := range plans {
				plans[i].prio = 1 + rng.next()%5
				rng.next() // once a CPU-affinity draw, kept like the policy draw
				plans[i].start = rtime.Time(rtime.Duration(rng.next()%10) * tu(1) / 2)
				plans[i].cost = rtime.Duration(1+rng.next()%25) * tu(1) / 10
				if rng.next()%2 == 0 {
					plans[i].period = rtime.Duration(4+rng.next()%10) * tu(1)
				}
			}
			build := func(ex *Exec, activation bool) {
				for i, p := range plans {
					name := fmt.Sprintf("z%d", i)
					if p.period > 0 {
						smpPeriodic(ex, name, p.prio, p.period, p.cost, activation)
						continue
					}
					c := p.cost
					ex.Spawn(name, p.prio, p.start, func(tc *TC) { tc.Consume(c) })
				}
			}
			run := func(activation bool) *Exec {
				ex := NewWithOptions(trace.New(), Options{CPUs: m, MigrationCost: cost})
				build(ex, activation)
				if err := ex.Run(at(60)); err != nil {
					t.Fatal(err)
				}
				if err := ex.CheckInvariants(); err != nil {
					t.Error(err)
				}
				return ex
			}
			ref := run(false)
			defer ref.Shutdown()
			if err := ref.Trace().CheckCPUs(m); err != nil {
				t.Errorf("reference trace invalid: %v", err)
			}
			if fp := ref.Trace().Fingerprint(); fp != smpFuzzFingerprints[trial] {
				t.Errorf("reference schedule fingerprint %#x, committed %#x", fp, smpFuzzFingerprints[trial])
			}
			ran.Add(1)
			migrated.Add(int64(ref.Migrations()))
			for _, cmp := range []struct {
				name       string
				activation bool
			}{
				{"rerun", false},
				{"direct-activation", true},
			} {
				got := run(cmp.activation)
				compareExecsCPUs(t, cmp.name, ref, got, m)
				got.Shutdown()
			}
			if t.Failed() {
				t.Fatalf("fuzz trial %d diverged (seed %d, m=%d)", trial, 7000+trial, m)
			}
		})
	}
}

// TestSMPOccupancy pins that M CPUs genuinely run in parallel: M
// always-ready threads on M CPUs each make full progress over the window,
// consuming M times what a uniprocessor could.
func TestSMPOccupancy(t *testing.T) {
	for _, m := range []int{2, 4} {
		ex := NewWithOptions(trace.New(), Options{CPUs: m})
		var ths []*Thread
		for i := 0; i < m; i++ {
			ths = append(ths, ex.Spawn(fmt.Sprintf("w%d", i), 1, 0, func(tc *TC) {
				tc.Consume(tu(10))
			}))
		}
		if err := ex.Run(at(10)); err != nil {
			t.Fatal(err)
		}
		for _, th := range ths {
			if th.Consumed() != tu(10) {
				t.Errorf("m=%d: %s consumed %v, want full 10tu", m, th.Name(), th.Consumed())
			}
		}
		if err := ex.Trace().CheckCPUs(m); err != nil {
			t.Error(err)
		}
		if m > 1 {
			if err := ex.Trace().CheckCPUs(m - 1); err == nil {
				t.Errorf("m=%d: schedule fits on %d CPUs: nothing ran in parallel", m, m-1)
			}
		}
		ex.Shutdown()
	}
}

// TestSMPMigrationCostCharged pins the migration accounting: with a
// migration cost, a preempted thread resuming on another CPU pays
// the penalty, visible as extra consumed-time demand.
func TestSMPMigrationCostCharged(t *testing.T) {
	run := func(cost rtime.Duration) (*Exec, *Thread) {
		ex := NewWithOptions(trace.New(), Options{CPUs: 2, MigrationCost: cost})
		// The victim starts alone on CPU 0; two simultaneous higher-priority
		// bursts displace it, with the long burst (earlier spawn order)
		// landing on CPU 0. When the short burst finishes, the victim
		// resumes mid-consume on CPU 1 — a migration.
		victim := ex.Spawn("victim", 1, 0, func(tc *TC) { tc.Consume(tu(12)) })
		ex.Spawn("burst-long", 5, at(1), func(tc *TC) { tc.Consume(tu(4)) })
		ex.Spawn("burst-short", 5, at(1), func(tc *TC) { tc.Consume(tu(2)) })
		if err := ex.Run(at(40)); err != nil {
			t.Fatal(err)
		}
		return ex, victim
	}
	free, fv := run(0)
	paid, pv := run(tu(1))
	if free.Migrations() == 0 {
		t.Fatal("victim never migrated: scenario does not exercise migration")
	}
	if fv.Migrations() == 0 {
		t.Error("per-thread migration counter stayed zero")
	}
	if !pv.Done() || !fv.Done() {
		t.Fatalf("victim did not finish (free done=%v, paid done=%v)", fv.Done(), pv.Done())
	}
	if pv.Consumed() <= fv.Consumed() {
		t.Errorf("migration cost not charged: paid consumed %v vs free %v",
			pv.Consumed(), fv.Consumed())
	}
	free.Shutdown()
	paid.Shutdown()
}
