package experiments

import (
	"strings"
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/faults"
	"rtsj/internal/rtime"
)

// overloadConfigs is the executive configuration matrix the overload
// fingerprints are pinned across: looping and activation-driven periodic
// dispatch.
var overloadConfigs = []struct {
	name       string
	activation bool
}{
	{"direct/thread", false},
	{"direct/activation", true},
}

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
// produced on each canonical scenario in each dispatch mode. The modes
// agree on everything but the pool high-water mark, so PeakWorkers is
// listed per mode, indexed like overloadConfigs. The looping peak is the
// one the channel kernel counted with its pool capped at 8 workers, a cap
// no scenario reached, so it is also the peak of the uncapped pool.
var overloadChannelCounts = map[string]struct {
	counts overloadCounts
	peaks  [2]int
}{
	OverloadMissStorm: {overloadCounts{Events: 451, Released: 451, Served: 104, Shed: 283, Pending: 64,
		PeriodicReleases: 13, FinalTime: rtime.AtTU(78)}, [2]int{5, 4}},
	OverloadTransient: {overloadCounts{Events: 205, Released: 205, Served: 137, Shed: 68,
		PeriodicReleases: 29, FinalTime: rtime.AtTU(168)}, [2]int{5, 4}},
	OverloadSaturation: {overloadCounts{Events: 155, Released: 620, Served: 566, Shed: 33, Pending: 21,
		PeriodicReleases: 240, FinalTime: rtime.AtTU(360)}, [2]int{5, 3}},
}

// TestOverloadMatrix runs every scenario on every executive configuration.
// The direct/<mode> subtests require the pinned fingerprint, a clean
// invariant net, and the scenario-specific degradation properties; the
// channel/<mode> subtests require every counter the retired channel kernel
// produced in that mode (overloadChannelCounts).
func TestOverloadMatrix(t *testing.T) {
	for _, sc := range OverloadScenarios() {
		for i, cfg := range overloadConfigs {
			t.Run(sc+"/channel/"+strings.TrimPrefix(cfg.name, "direct/"), func(t *testing.T) {
				p := DefaultOverloadParams(sc)
				p.PeriodicActivation = cfg.activation
				r, err := RunOverload(p)
				if err != nil {
					t.Fatal(err)
				}
				got := overloadCounts{r.Events, r.Released, r.Served, r.Interrupted, r.Rejected, r.Shed, r.Pending,
					r.PeriodicReleases, r.PeriodicMisses, r.CapacityFloor, r.FinalTime, r.PeakWorkers}
				ref := overloadChannelCounts[sc]
				want := ref.counts
				want.PeakWorkers = ref.peaks[i]
				if got != want {
					t.Errorf("counters %+v, channel kernel produced %+v", got, want)
				}
			})
			t.Run(sc+"/"+cfg.name, func(t *testing.T) {
				p := DefaultOverloadParams(sc)
				p.PeriodicActivation = cfg.activation
				r, err := RunOverload(p)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Violations) != 0 {
					t.Errorf("invariant violations: %v", r.Violations)
				}
				if r.Fingerprint != overloadFingerprints[sc] {
					t.Errorf("fingerprint %#x, pinned %#x", r.Fingerprint, overloadFingerprints[sc])
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
}

// TestOverloadMissPolicies pins that each miss policy yields one behavior
// across the configurations that support it: the policy changes the
// schedule, the executive configuration must not.
func TestOverloadMissPolicies(t *testing.T) {
	for _, tc := range []struct {
		name       string
		miss       exec.MissPolicy
		activation bool // MissAbort requires activation mode
	}{
		{"continue-late", exec.MissContinueLate, false},
		{"abort", exec.MissAbort, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want uint64
			for i, cfg := range overloadConfigs {
				if tc.activation && !cfg.activation {
					continue
				}
				p := DefaultOverloadParams(OverloadMissStorm)
				p.Events = 120
				p.PeriodicMiss = tc.miss
				p.PeriodicActivation = cfg.activation
				r, err := RunOverload(p)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Violations) != 0 {
					t.Errorf("%s: invariant violations: %v", cfg.name, r.Violations)
				}
				if i == 0 || want == 0 {
					want = r.Fingerprint
					continue
				}
				if r.Fingerprint != want {
					t.Errorf("%s: fingerprint %#x, want %#x", cfg.name, r.Fingerprint, want)
				}
			}
		})
	}
}

// TestOverloadMissAbortNeedsActivation pins the configuration error.
func TestOverloadMissAbortNeedsActivation(t *testing.T) {
	p := DefaultOverloadParams(OverloadMissStorm)
	p.PeriodicMiss = exec.MissAbort
	if _, err := RunOverload(p); err == nil {
		t.Fatal("MissAbort without PeriodicActivation should be rejected")
	}
}

// TestOverloadFaultPlanFuzz layers seeded fault plans (drops, jitter,
// cost overruns) on the transient scenario and requires, for every seed:
// a clean invariant net, and a fingerprint independent of the executive
// configuration (the two extremes of the matrix are compared).
func TestOverloadFaultPlanFuzz(t *testing.T) {
	jitterMax, err := faults.Parse("seed=1 jitter=0.3:2.5 overrun=0.4:1.5 drop=0.1")
	if err != nil {
		t.Fatal(err)
	}
	sawInterrupted := false
	for seed := int64(1); seed <= 8; seed++ {
		plan := *jitterMax
		plan.Seed = seed
		run := func(cfg int) *OverloadResult {
			p := DefaultOverloadParams(OverloadTransient)
			p.Events = 120
			p.Faults = &plan
			p.PeriodicActivation = overloadConfigs[cfg].activation
			r, err := RunOverload(p)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if len(r.Violations) != 0 {
				t.Errorf("seed %d: invariant violations: %v", seed, r.Violations)
			}
			return r
		}
		a, b := run(0), run(len(overloadConfigs)-1)
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("seed %d: fault schedule differs across configs: %#x vs %#x",
				seed, a.Fingerprint, b.Fingerprint)
		}
		if a.Interrupted > 0 {
			sawInterrupted = true
		}
	}
	if !sawInterrupted {
		t.Error("no seed produced an interrupted service: overruns not reaching the server")
	}
}
