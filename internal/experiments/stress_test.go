package experiments

import (
	"runtime"
	"testing"

	"rtsj/internal/rtime"
)

// TestStressLargeNBoundedGoroutines is the acceptance test of the worker
// pool's headroom: a >=10k-thread scenario completes on a handful of
// workers, never approaching one goroutine per thread. The pinned peak is
// the scenario's preemption depth at each size.
func TestStressLargeNBoundedGoroutines(t *testing.T) {
	p := DefaultStressParams()
	wantPeak := 6
	if testing.Short() {
		p.Jobs, wantPeak = 2000, 4
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

// stressFingerprints pins the completion-order fingerprint of the run of
// TestStressSchedulesIdenticalAcrossConfigs, by job count (full and
// -short). The values were captured from the executive's former
// channel-rendezvous reference kernel, which every configuration matched
// at the time.
var stressFingerprints = map[int]uint64{
	1500: 0x960db78d1a7bb6a2,
	300:  0x37350953e6e056a6,
}

// stressTotals pins the consumed time and final instant of the same run,
// as the looping background threads produced them; activation background
// threads matched them.
var stressTotals = map[int]struct {
	totalConsumed rtime.Duration
	finalTime     rtime.Time
}{
	1500: {1198850000, 1600000000},
	300:  {258150000, 400000000},
}

// TestStressSchedulesIdenticalAcrossConfigs checks the stress scenario
// against the pins its looping reference produced: completion-order
// fingerprint, total accounting and final instant.
func TestStressSchedulesIdenticalAcrossConfigs(t *testing.T) {
	p := DefaultStressParams()
	p.Jobs = 1500
	if testing.Short() {
		p.Jobs = 300
	}
	got, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != p.Jobs {
		t.Errorf("completed %d of %d jobs", got.Completed, p.Jobs)
	}
	if got.Fingerprint != stressFingerprints[p.Jobs] {
		t.Errorf("fingerprint %#x, committed %#x", got.Fingerprint, stressFingerprints[p.Jobs])
	}
	if want := stressTotals[p.Jobs]; got.TotalConsumed != want.totalConsumed || got.FinalTime != want.finalTime {
		t.Errorf("consumed %d, final %d; pinned %d, %d",
			got.TotalConsumed, got.FinalTime, want.totalConsumed, want.finalTime)
	}
}

// TestStressSMPM1 pins the stress scenario's M=1 reduction and the
// multi-CPU smoke: CPUs=1 matches the uniprocessor fingerprint exactly,
// and CPUs=4 completes every job with the pinned schedule, captured from
// looping background threads (which activation ones matched).
func TestStressSMPM1(t *testing.T) {
	p := DefaultStressParams()
	p.Jobs = 2000
	uni, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	p.CPUs = 1
	m1, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint != uni.Fingerprint {
		t.Fatalf("CPUs=1 stress fingerprint %#x differs from uniprocessor %#x",
			m1.Fingerprint, uni.Fingerprint)
	}
	p.CPUs = 4
	smp, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Completed != smp.Jobs {
		t.Fatalf("4-CPU stress completed %d of %d jobs", smp.Completed, smp.Jobs)
	}
	if want := uint64(0x3bd688efd75df539); smp.Fingerprint != want {
		t.Fatalf("4-CPU stress fingerprint %#x, pinned %#x", smp.Fingerprint, want)
	}
	if smp.Fingerprint == uni.Fingerprint {
		t.Fatal("4-CPU stress schedule identical to uniprocessor: CPUs not taking effect")
	}
}
