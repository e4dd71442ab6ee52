package sim

import (
	"math/rand"
	"testing"

	"rtsj/internal/rtime"
)

// allPolicies lists every FP server policy, in declaration order.
var allPolicies = []ServerPolicy{NoServer, PollingServer, DeferrableServer,
	LimitedPollingServer, LimitedDeferrableServer, SporadicServer,
	PriorityExchange, SlackStealer}

// TestRunnerMatchesRun is the stale-state differential of the reusable
// simulator: one Runner runs a shuffled sequence of random systems — with
// periodic tasks, unsorted and tied releases, unnamed arrivals — across
// every server policy, and each result must equal a fresh sim.Run job by
// job. A field of the calendar, the slab, the dispatcher or a server that
// survives from one run into the next shows up as a difference.
func TestRunnerMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// The sequence comes in blocks of one policy, in random order and of
	// random length, so a Runner both switches servers and reuses one
	// server for several systems in a row.
	var systems []System
	for len(systems) < 40*len(allPolicies) {
		pol := allPolicies[rng.Intn(len(allPolicies))]
		for n := 1 + rng.Intn(6); n > 0; n-- {
			systems = append(systems, randomRunnerSystem(rng, pol))
		}
	}
	horizons := []rtime.Time{rtime.AtTU(20), rtime.AtTU(45), rtime.AtTU(60), rtime.AtTU(90)}

	var r Runner
	for i, sys := range systems {
		horizon := horizons[rng.Intn(len(horizons))]
		got, err := r.Run(sys, horizon)
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		gotJobs := snapshotJobs(got)
		want, err := Run(sys, NewFP(sys, nil), horizon, nil)
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		wantJobs := snapshotJobs(want)
		if got.PeriodicMisses != want.PeriodicMisses || got.Horizon != want.Horizon {
			t.Fatalf("system %d (%v): misses/horizon %d/%v, want %d/%v",
				i, policyOf(sys), got.PeriodicMisses, got.Horizon, want.PeriodicMisses, want.Horizon)
		}
		if len(gotJobs) != len(wantJobs) {
			t.Fatalf("system %d (%v): %d jobs, want %d", i, policyOf(sys), len(gotJobs), len(wantJobs))
		}
		for k := range wantJobs {
			if gotJobs[k] != wantJobs[k] {
				t.Fatalf("system %d (%v): job %d = %+v, want %+v", i, policyOf(sys), k, gotJobs[k], wantJobs[k])
			}
		}
	}
}

// randomRunnerSystem is randomSystem under the given policy, with some
// arrivals left unnamed and some releases tied to their predecessor's.
func randomRunnerSystem(rng *rand.Rand, pol ServerPolicy) System {
	sys := randomSystem(rng)
	sys.Server = nil
	if pol != NoServer || rng.Intn(2) == 0 {
		sys.Server = &ServerSpec{
			Policy:   pol,
			Capacity: rtime.TUs(1 + rng.Float64()*3),
			Period:   rtime.TUs(4 + rng.Float64()*6),
			Priority: 100,
		}
	}
	for k := range sys.Aperiodics {
		if rng.Intn(3) == 0 {
			sys.Aperiodics[k].Name = "" // the engine names it AperiodicName(k)
		}
		if k > 0 && rng.Intn(4) == 0 {
			sys.Aperiodics[k].Release = sys.Aperiodics[k-1].Release // a tie
		}
	}
	return sys
}

func policyOf(sys System) ServerPolicy {
	if sys.Server == nil {
		return NoServer
	}
	return sys.Server.Policy
}

// TestRunnerRejectsInvalidSystem checks a Runner validates like sim.Run
// and stays usable after a rejected system.
func TestRunnerRejectsInvalidSystem(t *testing.T) {
	var r Runner
	bad := System{Aperiodics: []AperiodicJob{{Name: "j", Cost: 0}}}
	if _, err := r.Run(bad, rtime.AtTU(10)); err == nil {
		t.Fatal("Run accepted a zero-cost aperiodic")
	}
	sys := recycleTestSystem()
	got, err := r.Run(sys, rtime.AtTU(24))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(sys, NewFP(sys, nil), rtime.AtTU(24), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, w := snapshotJobs(got), snapshotJobs(want)
	if len(g) != len(w) {
		t.Fatalf("%d jobs, want %d", len(g), len(w))
	}
	for k := range w {
		if g[k] != w[k] {
			t.Fatalf("job %d = %+v, want %+v", k, g[k], w[k])
		}
	}
}
