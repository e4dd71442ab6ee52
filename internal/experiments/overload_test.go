package experiments

import (
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/faults"
	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

// Pinned fingerprints of the canonical scenario configurations
// (DefaultOverloadParams). A change here means the overload schedules
// changed — intentional changes must update all three together.
var overloadFingerprints = map[string]uint64{
	OverloadMissStorm:  0x1d0f49be3ec6e242,
	OverloadTransient:  0x1796b53e68a38488,
	OverloadSaturation: 0x4c411b6700b2d2fc,
}

// overloadCounts is the counter record of one overload run.
type overloadCounts struct {
	Events, Released, Served, Interrupted, Rejected, Shed, Pending int
	PeriodicReleases, PeriodicMisses                               int
	CapacityFloor                                                  rtime.Duration
	FinalTime                                                      rtime.Time
	PeakWorkers                                                    int
}

// overloadChannelCounts holds the counters the retired channel kernel
// produced on each canonical scenario, in looping and in activation mode
// alike, except for the pool high-water mark: PeakWorkers is the
// activation-mode peak, the form every scenario runs on now.
var overloadChannelCounts = map[string]overloadCounts{
	OverloadMissStorm: {Events: 451, Released: 451, Served: 104, Shed: 283, Pending: 64,
		PeriodicReleases: 13, FinalTime: rtime.AtTU(78), PeakWorkers: 4},
	OverloadTransient: {Events: 205, Released: 205, Served: 137, Shed: 68,
		PeriodicReleases: 29, FinalTime: rtime.AtTU(168), PeakWorkers: 4},
	OverloadSaturation: {Events: 155, Released: 620, Served: 566, Shed: 33, Pending: 21,
		PeriodicReleases: 240, FinalTime: rtime.AtTU(360), PeakWorkers: 3},
}

// TestOverloadMatrix runs every scenario once and checks it against the
// pins of the retired {channel, direct} x {thread, activation} executive
// matrix, one subtest per cell of that matrix:
//   - channel/thread: every counter but the pool peak equals what the
//     channel kernel produced with looping periodics;
//   - channel/activation: the pool peak equals the channel kernel's
//     activation-mode peak;
//   - direct/thread: the fingerprint equals the one the looping periodics
//     produced (overloadFingerprints, which both forms matched);
//   - direct/activation: a clean invariant net and the scenario-specific
//     degradation properties.
func TestOverloadMatrix(t *testing.T) {
	for _, sc := range OverloadScenarios() {
		r, err := RunOverload(DefaultOverloadParams(sc))
		if err != nil {
			t.Fatal(err)
		}
		got := overloadCounts{r.Events, r.Released, r.Served, r.Interrupted, r.Rejected, r.Shed, r.Pending,
			r.PeriodicReleases, r.PeriodicMisses, r.CapacityFloor, r.FinalTime, r.PeakWorkers}
		want := overloadChannelCounts[sc]
		t.Run(sc+"/channel/thread", func(t *testing.T) {
			got, want := got, want
			got.PeakWorkers, want.PeakWorkers = 0, 0
			if got != want {
				t.Errorf("counters %+v, channel kernel produced %+v", got, want)
			}
		})
		t.Run(sc+"/channel/activation", func(t *testing.T) {
			if got.PeakWorkers != want.PeakWorkers {
				t.Errorf("pool peaked at %d workers, channel kernel at %d", got.PeakWorkers, want.PeakWorkers)
			}
		})
		t.Run(sc+"/direct/thread", func(t *testing.T) {
			if r.Fingerprint != overloadFingerprints[sc] {
				t.Errorf("fingerprint %#x, pinned %#x", r.Fingerprint, overloadFingerprints[sc])
			}
		})
		t.Run(sc+"/direct/activation", func(t *testing.T) {
			if len(r.Violations) != 0 {
				t.Errorf("invariant violations: %v", r.Violations)
			}
			if r.PeriodicMisses != 0 {
				t.Errorf("hard periodics missed %d deadlines", r.PeriodicMisses)
			}
			if r.PeriodicReleases == 0 {
				t.Error("no periodic releases completed")
			}
			switch sc {
			case OverloadMissStorm:
				if r.Shed == 0 {
					t.Error("miss-storm shed nothing: not an overload")
				}
			case OverloadTransient:
				if r.Pending != 0 {
					t.Errorf("transient backlog did not drain: %d pending", r.Pending)
				}
				if r.Shed == 0 {
					t.Error("transient pulse shed nothing: not an overload")
				}
			case OverloadSaturation:
				if r.Served >= r.Released {
					t.Error("saturation sweep served everything: not saturated")
				}
			}
		})
	}
}

// overrunPeriodics is a hard periodic set too heavy for the CPU the
// miss-storm's saturated deferrable server leaves (utilization 0.94
// against about a third), so its tasks overrun their periods and each
// miss policy schedules differently.
func overrunPeriodics() []sim.PeriodicTask {
	return []sim.PeriodicTask{
		{Name: "tau1", Period: 12 * rtime.TU, Cost: 4 * rtime.TU, Priority: 50},
		{Name: "tau2", Period: 18 * rtime.TU, Cost: 6 * rtime.TU, Priority: 40},
		{Name: "tau3", Period: 36 * rtime.TU, Cost: 10 * rtime.TU, Priority: 30},
	}
}

// TestOverloadMissPolicies pins the miss-storm under each miss policy,
// with the storm's hard periodics replaced by overrunPeriodics: under
// skip the periodics miss deadlines, and the three policies must give
// three different fingerprints. (With the scenario's own periodic set
// nothing overruns, and all policies share one fingerprint.)
func TestOverloadMissPolicies(t *testing.T) {
	fps := map[uint64]string{}
	for _, tc := range []struct {
		name string
		miss exec.MissPolicy
		want uint64
	}{
		{"skip", exec.MissSkip, 0x56adab6bb37f5e7c},
		{"continue-late", exec.MissContinueLate, 0x84e2f4e5c636a7ff},
		{"abort", exec.MissAbort, 0x50b4e810300d65a9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultOverloadParams(OverloadMissStorm)
			p.PeriodicMiss = tc.miss
			sys, horizon, err := buildOverloadSystem(p)
			if err != nil {
				t.Fatal(err)
			}
			sys.Periodics = overrunPeriodics()
			r := &OverloadResult{Scenario: p.Scenario, Events: len(sys.Aperiodics), Fingerprint: 14695981039346656037}
			if err := runOverloadOnce(p, sys, horizon, r); err != nil {
				t.Fatal(err)
			}
			if len(r.Violations) != 0 {
				t.Errorf("invariant violations: %v", r.Violations)
			}
			if tc.miss == exec.MissSkip && r.PeriodicMisses == 0 {
				t.Error("the hard periodics never overran: the pin cannot tell the policies apart")
			}
			if r.Fingerprint != tc.want {
				t.Errorf("fingerprint %#x, pinned %#x", r.Fingerprint, tc.want)
			}
			if other, dup := fps[r.Fingerprint]; dup {
				t.Errorf("fingerprint %#x equals the %s policy's", r.Fingerprint, other)
			}
			fps[r.Fingerprint] = tc.name
		})
	}
}

// overloadFaultFingerprints pins the transient scenario's fingerprint
// under the fault plan of TestOverloadFaultPlanFuzz, by plan seed 1..8.
// The values were captured from looping periodics, which activation
// periodics matched.
var overloadFaultFingerprints = [8]uint64{
	0xff050121cca53112, 0x643ef6941fef40a, 0xc21a8c8566e26fef, 0x1e0744e91f3aedcf,
	0xd1f34f2fc0a0eac2, 0xdc0f29d5c75235b6, 0x5b313840f7ba2960, 0x3b231f31d7af76d2,
}

// TestOverloadFaultPlanFuzz layers seeded fault plans (drops, jitter,
// cost overruns) on the transient scenario and requires, for every seed,
// a clean invariant net and the pinned fingerprint.
func TestOverloadFaultPlanFuzz(t *testing.T) {
	jitterMax, err := faults.Parse("seed=1 jitter=0.3:2.5 overrun=0.4:1.5 drop=0.1")
	if err != nil {
		t.Fatal(err)
	}
	sawInterrupted := false
	for i, want := range overloadFaultFingerprints {
		seed := int64(i + 1)
		plan := *jitterMax
		plan.Seed = seed
		p := DefaultOverloadParams(OverloadTransient)
		p.Events = 120
		p.Faults = &plan
		r, err := RunOverload(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r.Violations) != 0 {
			t.Errorf("seed %d: invariant violations: %v", seed, r.Violations)
		}
		if r.Fingerprint != want {
			t.Errorf("seed %d: fingerprint %#x, pinned %#x", seed, r.Fingerprint, want)
		}
		if r.Interrupted > 0 {
			sawInterrupted = true
		}
	}
	if !sawInterrupted {
		t.Error("no seed produced an interrupted service: overruns not reaching the server")
	}
}
