package harness

import (
	"testing"

	"rtsj/internal/obs"
)

// Installed stats observe busy workers and reorder-window depth without
// changing results; removing them stops the counting.
func TestHarnessStats(t *testing.T) {
	reg := obs.NewRegistry()
	SetStats(NewStats(reg))
	defer SetStats(nil)

	got, err := ReduceN(4, 100, 0, noState, func(_ struct{}, i int) (int, error) { return i, nil },
		func(acc, _ int, r int) int { return acc + r })
	if err != nil {
		t.Fatal(err)
	}
	if got != 4950 {
		t.Fatalf("sum = %d, want 4950", got)
	}
	m := reg.Map()
	if m["harness.workers_busy_max"] <= 0 {
		t.Errorf("workers_busy_max = %d, want > 0", m["harness.workers_busy_max"])
	}
	if m["harness.reorder_window_max"] <= 0 {
		t.Errorf("reorder_window_max = %d, want > 0", m["harness.reorder_window_max"])
	}

	SetStats(nil)
	before := reg.Map()["harness.workers_busy_max"]
	if _, err := MapN(4, 50, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if after := reg.Map()["harness.workers_busy_max"]; after != before {
		t.Errorf("stats kept counting after SetStats(nil): %d -> %d", before, after)
	}
}
