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
