package experiments

import (
	"fmt"

	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Periodic steady-state scenario: the workload the activation-driven
// executive (exec.SpawnPeriodic) opens up. Thousands to tens of thousands
// of long-running periodic entities — the shape of the paper's periodic
// background load and its polling/deferrable/sporadic servers — run
// forever at a modest total utilization. An entity owns no worker between
// releases, so the whole system runs on a handful of workers.

// SteadyStateParams configures the scenario generator. Everything derives
// deterministically from Seed, so two runs schedule identically.
type SteadyStateParams struct {
	// Entities is the number of periodic entities.
	Entities int
	// HorizonTU is the run horizon in time units; entity periods span
	// 50-225 tu, so a few hundred tu gives every entity several releases.
	HorizonTU float64
	// Utilization is the total CPU demand of all entities (0 < u < 1);
	// each entity gets an equal share spread over its period.
	Utilization float64
	// Seed drives period classes and offsets.
	Seed uint64
	// Sink optionally records the run's schedule (nil keeps the
	// metrics-only fast path); cmd/stress -perfetto uses it.
	Sink trace.Sink
	// Stats optionally wires the executive's kernel counters
	// (exec.Options.Stats). Observational only.
	Stats *exec.Stats
}

// DefaultSteadyStateParams is the 10k-entity configuration used by
// BenchmarkExecPeriodicSteadyState and cmd/stress -scenario steady.
func DefaultSteadyStateParams() SteadyStateParams {
	return SteadyStateParams{
		Entities:    10_000,
		HorizonTU:   500,
		Utilization: 0.75,
		Seed:        2007,
	}
}

// SteadyStateResult summarizes one steady-state run.
type SteadyStateResult struct {
	// Entities is the configured entity count; Activations counts
	// completed releases across all of them.
	Entities    int
	Activations int // completed releases across all entities
	// Missed counts releases skipped because a body overran (zero at the
	// default utilization).
	Missed int
	// TotalConsumed is the virtual CPU consumed by all entities.
	TotalConsumed rtime.Duration
	// Horizon and FinalTime delimit the run.
	Horizon   rtime.Time
	FinalTime rtime.Time // virtual clock when the run stopped
	// PeakWorkers is the pool goroutine high-water mark
	// (exec.Exec.PoolPeak).
	PeakWorkers int
	// Fingerprint hashes every activation completion (entity, instant) in
	// schedule order: two runs are schedule-identical iff it matches.
	Fingerprint uint64
}

// RunPeriodicSteadyState builds and runs the scenario.
func RunPeriodicSteadyState(p SteadyStateParams) (*SteadyStateResult, error) {
	if p.Entities <= 0 {
		return nil, fmt.Errorf("steadystate: need at least one entity (got %d)", p.Entities)
	}
	if p.Utilization <= 0 || p.Utilization >= 1 {
		return nil, fmt.Errorf("steadystate: utilization must be in (0,1) (got %g)", p.Utilization)
	}
	if p.HorizonTU <= 0 {
		return nil, fmt.Errorf("steadystate: horizon must be positive (got %g)", p.HorizonTU)
	}
	rng := &stressRand{s: p.Seed ^ 0xa076_1d64_78bd_642f}
	ex := exec.NewWithOptions(p.Sink, exec.Options{Stats: p.Stats})
	res := &SteadyStateResult{Entities: p.Entities, Fingerprint: 14695981039346656037}
	res.Horizon = rtime.AtTU(p.HorizonTU)

	for i := 0; i < p.Entities; i++ {
		// Eight period classes, 50..225 tu; shorter periods run at higher
		// priority (rate-monotonic), deterministic offsets within the
		// first period.
		class := rng.next() % 8
		period := rtime.Duration(50+25*class) * rtime.TU
		offset := rtime.Time(rng.next() % uint64(period))
		cost := rtime.Duration(float64(period) * p.Utilization / float64(p.Entities))
		if cost <= 0 {
			cost = 1
		}
		prio := 2 + int(7-class)
		ex.SpawnPeriodic(fmt.Sprintf("ss%d", i), prio, exec.ActivationSpec{Start: offset, Period: period}, func(tc *exec.TC) {
			tc.Consume(cost)
			res.Activations++
			res.Fingerprint = (res.Fingerprint ^ uint64(i)) * 1099511628211
			res.Fingerprint = (res.Fingerprint ^ uint64(tc.Now())) * 1099511628211
		})
	}

	err := ex.Run(res.Horizon)
	res.FinalTime = ex.Now()
	res.PeakWorkers = ex.PoolPeak()
	for _, th := range ex.Threads() {
		res.TotalConsumed += th.Consumed()
		res.Missed += th.MissedActivations()
	}
	ex.Shutdown()
	if err != nil {
		return nil, err
	}
	return res, nil
}
