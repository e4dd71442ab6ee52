package experiments

import (
	"runtime"
	"testing"

	"rtsj/internal/gen"
	"rtsj/internal/sim"
)

// TestAllocsCampaignSystem pins the campaign's steady state at zero
// allocations: on a warmed campaignWorker, one system — generated into
// the worker's gen.Buffer, run on its sim.Runner and folded through its
// event slice — allocates nothing, under every server policy. One measured
// call runs a whole cycle of systems across the stock sweep, and every
// cycle repeats the same systems, so an allocation anywhere in the cycle
// recurs in each of the five measured cycles and fails the test. (The
// average is floored, which only forgives a stray allocation the test
// framework's own goroutines make while a cycle runs.)
func TestAllocsCampaignSystem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; allocation counts are meaningless under -race")
	}
	for pol := sim.NoServer; pol <= sim.SlackStealer; pol++ {
		t.Run(pol.String(), func(t *testing.T) {
			s := DefaultCampaignSpec()
			s.Policy = pol
			type unit struct {
				p gen.Params
				i int
			}
			var units []unit
			for point := range s.Points {
				for i := 0; i < 25; i++ {
					units = append(units, unit{s.pointParams(point), i})
				}
			}
			w := newCampaignWorker()
			systems := 0
			cycle := func() {
				for _, u := range units {
					one, err := w.system(u.p, pol, u.p.Horizon(), u.i)
					if err != nil {
						t.Fatal(err)
					}
					systems += one.Systems
				}
			}
			cycle() // warm-up: the worker's storage grows to the largest system
			// A first collection starting inside the measured cycle would
			// count the runtime's own mark-worker allocations; finish one
			// now.
			runtime.GC()
			if n := testing.AllocsPerRun(5, cycle); n != 0 {
				t.Errorf("%v allocations per %d-system cycle, want 0", n, len(units))
			}
			if want := 7 * len(units); systems != want {
				t.Fatalf("folded %d systems, want %d", systems, want)
			}
		})
	}
}

// TestAllocsTablesSimulationSystem pins the simulation side of Tables 2
// and 4 at zero allocations: on a warmed campaignWorker, one system of a
// table set — its server attached in the worker's gen.Buffer, run on its
// sim.Runner and summarized through its event slice — allocates nothing,
// for PS and DS over all six sets. The systems are generated before the
// measured cycles, as RunSet generates a set once before fanning it out.
func TestAllocsTablesSimulationSystem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; allocation counts are meaningless under -race")
	}
	for _, pol := range []sim.ServerPolicy{sim.PollingServer, sim.DeferrableServer} {
		t.Run(pol.String(), func(t *testing.T) {
			type set struct {
				p       gen.Params
				systems []sim.System
			}
			var sets []set
			for _, key := range SetKeys {
				p := GenParams(key)
				sets = append(sets, set{p, gen.Generate(p)})
			}
			w := newCampaignWorker()
			served := 0
			cycle := func() {
				for _, s := range sets {
					for i, base := range s.systems {
						sum, err := w.setSystem(s.p, base, i, pol, Simulation, ExecModel{})
						if err != nil {
							t.Fatal(err)
						}
						served += sum.Served
					}
				}
			}
			cycle() // warm-up: the worker's storage grows to the largest system
			runtime.GC()
			if n := testing.AllocsPerRun(5, cycle); n != 0 {
				t.Errorf("%v allocations per %d-set cycle, want 0", n, len(sets))
			}
			if served == 0 {
				t.Fatal("no event served across the six sets")
			}
		})
	}
}
