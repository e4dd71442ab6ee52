package experiments

import (
	"runtime"
	"testing"
)

// TestSteadyStateBoundedGoroutines is the acceptance test of the
// activation-driven executive: a 10k-periodic-entity steady-state workload
// runs on a handful of workers, never approaching one goroutine per entity
// (which is exactly what looping mode would cost). The pinned peak is the
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

// steadyStateFingerprints pins the activation fingerprint of the per-thread
// looping reference run of TestSteadyStateSchedulesIdenticalAcrossConfigs,
// by entity count (full and -short), captured like stressFingerprints.
var steadyStateFingerprints = map[int]uint64{
	400: 0xd8c94efcd9a1554b,
	120: 0xf9a71b03595310f3,
}

// TestSteadyStateSchedulesIdenticalAcrossConfigs differential-tests the
// steady-state scenario over the executive matrix, the loop and activation
// formulations: the activation fingerprint must match the looping
// reference exactly, and the reference must match its committed
// fingerprint.
func TestSteadyStateSchedulesIdenticalAcrossConfigs(t *testing.T) {
	p := DefaultSteadyStateParams()
	p.Entities = 400 // keep the per-thread runs fast
	p.HorizonTU = 300
	if testing.Short() {
		p.Entities = 120
	}
	ref := p
	ref.Activation = false
	want, err := RunPeriodicSteadyState(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.Activations == 0 {
		t.Fatal("reference run scheduled no activations")
	}
	if want.Fingerprint != steadyStateFingerprints[p.Entities] {
		t.Errorf("reference fingerprint %#x, committed %#x", want.Fingerprint, steadyStateFingerprints[p.Entities])
	}
	p.Activation = true
	got, err := RunPeriodicSteadyState(p)
	if err != nil {
		t.Fatalf("activation: %v", err)
	}
	if got.Fingerprint != want.Fingerprint || got.Activations != want.Activations ||
		got.TotalConsumed != want.TotalConsumed || got.Missed != want.Missed {
		t.Errorf("activation diverged from loop reference: fingerprint %x vs %x, activations %d vs %d, consumed %v vs %v, missed %d vs %d",
			got.Fingerprint, want.Fingerprint, got.Activations, want.Activations,
			got.TotalConsumed, want.TotalConsumed, got.Missed, want.Missed)
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
