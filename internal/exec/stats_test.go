package exec

import (
	"testing"

	"rtsj/internal/obs"
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// statsScenario exercises every hook family: a preemption, periodic
// dispatches with a timer queue, and worker creation.
func statsScenario(ex *Exec) {
	ex.Spawn("lo", 1, 0, func(tc *TC) { tc.Consume(rtime.TUs(6)) })
	ex.Spawn("hi", 2, rtime.AtTU(2), func(tc *TC) { tc.Consume(rtime.TUs(2)) })
	ex.SpawnPeriodic("p", 3, ActivationSpec{Start: rtime.AtTU(1), Period: rtime.TUs(5)}, func(tc *TC) {
		tc.Consume(rtime.TUs(1))
	})
}

func runStatsScenario(t *testing.T, opts Options) (*trace.Trace, *Exec) {
	t.Helper()
	ex := NewWithOptions(trace.New(), opts)
	statsScenario(ex)
	if err := ex.Run(rtime.AtTU(20)); err != nil {
		t.Fatal(err)
	}
	ex.Shutdown()
	return ex.Trace(), ex
}

// Enabling stats must not perturb the schedule: the trace with stats on
// is segment-for-segment identical to the trace without.
func TestStatsDoNotPerturbSchedule(t *testing.T) {
	base, _ := runStatsScenario(t, Options{})
	reg := obs.NewRegistry()
	withStats, _ := runStatsScenario(t, Options{Stats: NewStats(reg)})
	if len(base.Segments) != len(withStats.Segments) {
		t.Fatalf("segment counts differ: %d vs %d", len(base.Segments), len(withStats.Segments))
	}
	for i := range base.Segments {
		if base.Segments[i] != withStats.Segments[i] {
			t.Fatalf("segment %d differs: %+v vs %+v", i, base.Segments[i], withStats.Segments[i])
		}
	}
	for i := range base.Events {
		if base.Events[i] != withStats.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, base.Events[i], withStats.Events[i])
		}
	}
}

// The hooks must actually count: a workload with a preemption, periodic
// dispatches and timers leaves nonzero instruments behind.
func TestStatsCountKernelWork(t *testing.T) {
	reg := obs.NewRegistry()
	runStatsScenario(t, Options{Stats: NewStats(reg)})
	m := reg.Map()
	for _, name := range []string{"exec.context_switches", "exec.preemptions", "exec.dispatches", "exec.timer_heap_max", "exec.ready_max"} {
		if m[name] <= 0 {
			t.Errorf("%s = %d, want > 0 (all: %v)", name, m[name], m)
		}
	}
}

// The pool's spawn counter agrees with the executive's own accounting.
func TestStatsPoolCounters(t *testing.T) {
	reg := obs.NewRegistry()
	ex := NewWithOptions(nil, Options{Stats: NewStats(reg)})
	for i := 0; i < 4; i++ {
		ex.Spawn("t", 1, 0, func(tc *TC) { tc.Consume(rtime.TUs(1)) })
	}
	if err := ex.Run(rtime.AtTU(10)); err != nil {
		t.Fatal(err)
	}
	ex.Shutdown()
	m := reg.Map()
	if got, want := m["exec.pool_spawns"], int64(ex.PoolPeak()); got != want || got == 0 {
		t.Errorf("pool_spawns = %d, PoolPeak = %d", got, want)
	}
}

// SMP runs record per-CPU segments through the CPUSink path and count
// migrations in the registry identically to the executive's tally.
func TestStatsSMPMigrationsAndCPUSegments(t *testing.T) {
	reg := obs.NewRegistry()
	ex := NewWithOptions(trace.New(), Options{CPUs: 2, Stats: NewStats(reg)})
	ex.Spawn("a", 2, 0, func(tc *TC) { tc.Consume(rtime.TUs(4)) })
	ex.Spawn("b", 2, 0, func(tc *TC) { tc.Consume(rtime.TUs(4)) })
	ex.Spawn("c", 1, 0, func(tc *TC) { tc.Consume(rtime.TUs(4)) })
	if err := ex.Run(rtime.AtTU(20)); err != nil {
		t.Fatal(err)
	}
	ex.Shutdown()
	if got, want := reg.Map()["exec.migrations"], int64(ex.Migrations()); got != want {
		t.Errorf("exec.migrations = %d, ex.Migrations() = %d", got, want)
	}
	maxCPU := 0
	for _, s := range ex.Trace().Segments {
		if s.CPU > maxCPU {
			maxCPU = s.CPU
		}
	}
	if maxCPU != 1 {
		t.Errorf("max segment CPU = %d, want 1 (two CPUs busy)", maxCPU)
	}
}
