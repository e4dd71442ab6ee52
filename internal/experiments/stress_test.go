package experiments

import (
	"runtime"
	"testing"
)

// TestStressLargeNBoundedGoroutines is the acceptance test of the worker
// pool's headroom: a >=10k-thread scenario completes on a handful of
// workers, never approaching one goroutine per thread. The pinned peak is
// the scenario's preemption depth at each size.
func TestStressLargeNBoundedGoroutines(t *testing.T) {
	p := DefaultStressParams()
	wantPeak := 9
	if testing.Short() {
		p.Jobs, wantPeak = 2000, 8
	}
	before := runtime.NumGoroutine()
	res, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != p.Jobs {
		t.Fatalf("completed %d of %d jobs", res.Completed, p.Jobs)
	}
	if res.PeakWorkers != wantPeak {
		t.Errorf("pool peaked at %d workers, want %d", res.PeakWorkers, wantPeak)
	}
	if after := runtime.NumGoroutine(); after > before+wantPeak+8 {
		t.Errorf("goroutines after run: before=%d after=%d (not bounded by the pool)", before, after)
	}
	if res.BackgroundRun == 0 {
		t.Error("background load never ran")
	}
}

// stressFingerprints pins the completion-order fingerprint of the
// per-thread reference run of TestStressSchedulesIdenticalAcrossConfigs,
// by job count (full and -short). The values were captured from the
// executive's former channel-rendezvous reference kernel, which every
// configuration matched at the time.
var stressFingerprints = map[int]uint64{
	1500: 0x960db78d1a7bb6a2,
	300:  0x37350953e6e056a6,
}

// TestStressSchedulesIdenticalAcrossConfigs differential-tests the stress
// scenario itself over the executive matrix: the completion-order
// fingerprint, total accounting and final instant must be identical with
// looping and with activation background threads, and the looping
// reference must match its committed fingerprint.
func TestStressSchedulesIdenticalAcrossConfigs(t *testing.T) {
	p := DefaultStressParams()
	p.Jobs = 1500 // keep the per-thread runs fast
	if testing.Short() {
		p.Jobs = 300
	}
	ref, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Completed != p.Jobs {
		t.Fatalf("reference completed %d of %d jobs", ref.Completed, p.Jobs)
	}
	if ref.Fingerprint != stressFingerprints[p.Jobs] {
		t.Errorf("reference fingerprint %#x, committed %#x", ref.Fingerprint, stressFingerprints[p.Jobs])
	}
	p.PeriodicActivation = true
	got, err := RunStress(p)
	if err != nil {
		t.Fatalf("activation: %v", err)
	}
	if got.Fingerprint != ref.Fingerprint || got.Completed != ref.Completed ||
		got.TotalConsumed != ref.TotalConsumed || got.FinalTime != ref.FinalTime {
		t.Errorf("activation diverged from reference: fingerprint %x vs %x, completed %d vs %d, consumed %v vs %v, final %v vs %v",
			got.Fingerprint, ref.Fingerprint, got.Completed, ref.Completed,
			got.TotalConsumed, ref.TotalConsumed, got.FinalTime.TUs(), ref.FinalTime.TUs())
	}
}
