package main

import "testing"

func snap(spin float64, ns map[string]float64) *Snapshot {
	return &Snapshot{SpinNs: spin, NsPerOp: ns}
}

func TestMissingFromRunFailsGate(t *testing.T) {
	base := snap(100, map[string]float64{"BenchmarkA": 50, "BenchmarkB": 70})
	cur := snap(100, map[string]float64{"BenchmarkA": 50})
	if got := missingFromRun(base, cur); len(got) != 1 || got[0] != "BenchmarkB" {
		t.Fatalf("missingFromRun = %v, want [BenchmarkB]", got)
	}
	if !gate(base, cur, 0.15) {
		t.Fatal("a baseline benchmark missing from the run must fail the gate")
	}
	// With the benchmark present and within threshold, the gate passes.
	cur.NsPerOp["BenchmarkB"] = 75
	if gate(base, cur, 0.15) {
		t.Fatal("gate failed although every baseline benchmark is within threshold")
	}
}

func TestRegressionsSpeedNormalized(t *testing.T) {
	// The gating machine is 2x slower (spin takes twice as long): raw
	// ns/op doubling is NOT a regression once normalized.
	base := snap(100, map[string]float64{"BenchmarkA": 50})
	cur := snap(200, map[string]float64{"BenchmarkA": 100})
	if got := regressions(base, cur, 0.15); len(got) != 0 {
		t.Fatalf("regressions = %v, want none (speed-normalized)", got)
	}
	cur.NsPerOp["BenchmarkA"] = 130
	if got := regressions(base, cur, 0.15); len(got) != 1 {
		t.Fatalf("regressions = %v, want [BenchmarkA]", got)
	}
}

func TestOneSidedCalibrationComparesRaw(t *testing.T) {
	// Calibration on only one side: the scale stays 1 (raw comparison)
	// and the warning path runs; the regression verdict is then on raw
	// ns/op.
	calibrationWarned = false
	base := snap(0, map[string]float64{"BenchmarkA": 50})
	cur := snap(200, map[string]float64{"BenchmarkA": 100})
	if got := regressions(base, cur, 0.15); len(got) != 1 || got[0] != "BenchmarkA" {
		t.Fatalf("regressions = %v, want [BenchmarkA] (raw comparison)", got)
	}
	if !calibrationWarned {
		t.Fatal("one-sided calibration must warn")
	}
}

func TestAllocsPerOpFromRaw(t *testing.T) {
	raw := "BenchmarkA-2 \t 10\t 100 ns/op\t 64 B/op\t 12 allocs/op\n" +
		"BenchmarkA-2 \t 10\t 90 ns/op\t 64 B/op\t 11 allocs/op\n" +
		"BenchmarkB/sub-2 \t 5\t 7 ns/op\t 3 allocs/op\n" +
		"BenchmarkC \t 5\t 7 ns/op\n"
	got := allocsPerOp(raw)
	if len(got) != 2 || got["BenchmarkA"] != 11 || got["BenchmarkB/sub"] != 3 {
		t.Fatalf("allocsPerOp = %v, want A:11 (the minimum), B/sub:3 and no C", got)
	}
}

func TestAllocsGateTolerance(t *testing.T) {
	for _, c := range []struct {
		old, now  float64
		regressed bool
	}{
		{0, 0, false},
		{0, 1, false}, // one allocation of slack
		{0, 2, true},
		{110756, 110757, false}, // the committed baseline's own jitter
		{110756, 110866, false}, // 0.1%
		{110756, 110868, true},
		{39889, 110756, true},
	} {
		if got := allocsRegressed(c.old, c.now); got != c.regressed {
			t.Errorf("allocsRegressed(%v, %v) = %v, want %v", c.old, c.now, got, c.regressed)
		}
	}
}

func TestGateFailsOnAllocsRegression(t *testing.T) {
	base := snap(100, map[string]float64{"BenchmarkA": 50})
	cur := snap(100, map[string]float64{"BenchmarkA": 50})
	base.Raw = "BenchmarkA-2 \t 10\t 50 ns/op\t 4 allocs/op\n"
	cur.Raw = "BenchmarkA-2 \t 10\t 50 ns/op\t 5 allocs/op\n"
	if gate(base, cur, 0.15) {
		t.Fatal("one extra allocation is within tolerance, yet the gate failed")
	}
	cur.Raw = "BenchmarkA-2 \t 10\t 50 ns/op\t 6 allocs/op\n"
	if !gate(base, cur, 0.15) {
		t.Fatal("two extra allocations must fail the gate")
	}
	// A side that does not report allocations is not gated on them.
	cur.Raw = "BenchmarkA-2 \t 10\t 50 ns/op\n"
	if gate(base, cur, 0.15) {
		t.Fatal("a run without allocs/op must not fail the allocation gate")
	}
}
