package experiments

import (
	"runtime"
	"testing"

	"rtsj/internal/rtime"
)

// TestSteadyStateBoundedGoroutines is the acceptance test of the
// activation-driven executive: a 10k-periodic-entity steady-state workload
// runs on a handful of workers, never approaching one goroutine per entity
// (which is exactly what looping threads would cost). The pinned peak is the
// scenario's preemption depth, the same at both sizes.
func TestSteadyStateBoundedGoroutines(t *testing.T) {
	p := DefaultSteadyStateParams()
	const wantPeak = 6
	if testing.Short() {
		p.Entities = 2000
	}
	before := runtime.NumGoroutine()
	res, err := RunPeriodicSteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Activations < p.Entities {
		t.Fatalf("only %d activations for %d entities (each should release at least once)",
			res.Activations, p.Entities)
	}
	if res.PeakWorkers != wantPeak {
		t.Errorf("pool peaked at %d workers, want %d (not O(entities))", res.PeakWorkers, wantPeak)
	}
	if after := runtime.NumGoroutine(); after > before+wantPeak+16 {
		t.Errorf("goroutines after run: before=%d after=%d (not bounded by the pool)", before, after)
	}
	if res.Missed != 0 {
		t.Errorf("%d releases missed at utilization %g; scenario is oversubscribed", res.Missed, p.Utilization)
	}
	if res.FinalTime != res.Horizon {
		t.Errorf("steady-state run ended at %v, want the %v horizon", res.FinalTime.TUs(), res.Horizon.TUs())
	}
}

// steadyStateFingerprints pins the fingerprint of the run of
// TestSteadyStateSchedulesIdenticalAcrossConfigs by entity count (full and
// -short), captured like stressFingerprints from the looping reference.
var steadyStateFingerprints = map[int]uint64{
	400: 0xd8c94efcd9a1554b,
	120: 0xf9a71b03595310f3,
}

// steadyStatePins pins the rest of that run, by entity count, as the
// looping reference produced it; the activation entities matched it.
var steadyStatePins = map[int]struct {
	activations   int
	totalConsumed rtime.Duration
}{
	400: {1102, 225502842},
	120: {328, 228281250},
}

// TestSteadyStateSchedulesIdenticalAcrossConfigs checks the steady-state
// scenario against the pins its looping reference produced: fingerprint,
// activation count, consumed time, final instant and no missed release.
func TestSteadyStateSchedulesIdenticalAcrossConfigs(t *testing.T) {
	p := DefaultSteadyStateParams()
	p.Entities = 400
	p.HorizonTU = 300
	if testing.Short() {
		p.Entities = 120
	}
	got, err := RunPeriodicSteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	want := steadyStatePins[p.Entities]
	if got.Fingerprint != steadyStateFingerprints[p.Entities] {
		t.Errorf("fingerprint %#x, committed %#x", got.Fingerprint, steadyStateFingerprints[p.Entities])
	}
	if got.Activations != want.activations || got.TotalConsumed != want.totalConsumed ||
		got.FinalTime != rtime.AtTU(300) || got.Missed != 0 {
		t.Errorf("activations %d, consumed %d, final %v, missed %d; pinned %d, %d, t=300tu, 0",
			got.Activations, got.TotalConsumed, got.FinalTime, got.Missed, want.activations, want.totalConsumed)
	}
}

func TestSteadyStateParamValidation(t *testing.T) {
	for _, p := range []SteadyStateParams{
		{Entities: 0, HorizonTU: 10, Utilization: 0.5},
		{Entities: 1, HorizonTU: 10, Utilization: 0},
		{Entities: 1, HorizonTU: 10, Utilization: 1.5},
		{Entities: 1, HorizonTU: 0, Utilization: 0.5},
	} {
		if _, err := RunPeriodicSteadyState(p); err == nil {
			t.Errorf("params %+v: expected an error", p)
		}
	}
}
