package experiments

import (
	"fmt"

	"rtsj/internal/exec"
	"rtsj/internal/faults"
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Large-N stress scenario: the workload the executive's worker pool is
// sized for. Thousands to tens of thousands of one-shot sporadic job
// threads — each released once, consuming a short burst of CPU to
// completion — arrive on top of a small set of periodic background
// threads. The worker count is bounded by the preemption depth (roughly
// the number of priority bands), not the job count, because each worker
// is recycled as soon as its job completes.

// StressParams configures the scenario generator. Everything is derived
// deterministically from Seed, so two runs schedule identically.
type StressParams struct {
	// Jobs is the number of one-shot sporadic job threads.
	Jobs int
	// Background is the number of periodic background threads, run as
	// activation entities (exec.SpawnPeriodic).
	Background int
	// PriorityBands spreads the sporadic jobs over this many priority
	// levels above the background load.
	PriorityBands int
	// Seed drives release times, costs and priorities.
	Seed uint64
	// Faults optionally perturbs the sporadic jobs with a deterministic
	// fault plan: dropped jobs are never spawned, jittered jobs release
	// late, overrunning jobs consume more than their generated cost. The
	// fault schedule is a pure function of (plan seed, job index).
	Faults *faults.Plan
	// CPUs sets the executive's virtual CPU count (exec.Options.CPUs; 0
	// means 1), all fed from its one ready queue — the multi-CPU stress
	// smoke of cmd/stress -cpus.
	CPUs int
	// Trace optionally records the run's schedule (nil keeps the
	// metrics-only fast path). cmd/stress -perfetto passes a trace here
	// to export the schedule.
	Trace *trace.Trace
	// Stats optionally wires the executive's kernel counters
	// (exec.Options.Stats). Observational only — the fingerprint and all
	// result fields are identical with or without it.
	Stats *exec.Stats
}

// DefaultStressParams is the 10k-job configuration used by
// BenchmarkExecLargeN and cmd/stress.
func DefaultStressParams() StressParams {
	return StressParams{
		Jobs:          10_000,
		Background:    4,
		PriorityBands: 6,
		Seed:          2007,
	}
}

// StressResult summarizes one stress run.
type StressResult struct {
	Jobs          int            // sporadic jobs configured
	Completed     int            // sporadic jobs run to completion
	Dropped       int            // jobs removed by the fault plan (never spawned)
	BackgroundRun int            // background activations completed
	TotalConsumed rtime.Duration // virtual time consumed by sporadic jobs
	Horizon       rtime.Time     // configured stop instant
	FinalTime     rtime.Time     // virtual clock when the run stopped
	PeakWorkers   int            // pool goroutine high-water mark (exec.Exec.PoolPeak)
	Migrations    int            // cross-CPU migrations (0 unless CPUs > 1)
	// Fingerprint hashes every job completion (index, instant) in
	// schedule order: two runs are schedule-identical iff it matches.
	Fingerprint uint64
}

// stressRand is the same splitmix-style deterministic generator the
// executive tests use; the stress scenario must not depend on math/rand's
// version-dependent stream.
type stressRand struct{ s uint64 }

func (r *stressRand) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 17
}

// RunStress builds and runs the scenario. The horizon is sized so the
// generated demand fits (utilization ~0.8), and the run extends past the
// last release until the system quiesces.
func RunStress(p StressParams) (*StressResult, error) {
	if p.Jobs <= 0 {
		return nil, fmt.Errorf("stress: need at least one job (got %d)", p.Jobs)
	}
	if p.PriorityBands <= 0 {
		p.PriorityBands = 1
	}
	rng := &stressRand{s: p.Seed ^ 0x9e3779b97f4a7c15}
	ex := exec.NewWithOptions(p.Trace, exec.Options{CPUs: p.CPUs, Stats: p.Stats})
	res := &StressResult{Jobs: p.Jobs, Fingerprint: 14695981039346656037}

	// Release window: jobs at ~0.5tu average cost, spread to ~55% load,
	// leaving room for the background threads (~25%).
	window := rtime.Time(rtime.Duration(p.Jobs) * rtime.TU)
	res.Horizon = window + rtime.Time(rtime.TUs(float64(100)))

	for i := 0; i < p.Background; i++ {
		period := rtime.Duration(8+2*i) * rtime.TU
		cost := rtime.Duration(4+i) * rtime.TU / 8
		ex.SpawnPeriodic(fmt.Sprintf("bg%d", i), 1,
			exec.ActivationSpec{Period: period}, func(tc *exec.TC) {
				tc.Consume(cost)
				res.BackgroundRun++
			})
	}

	for i := 0; i < p.Jobs; i++ {
		i := i
		release := rtime.Time(rng.next() % uint64(window))
		cost := rtime.Duration(1+rng.next()%10) * rtime.TU / 10 // 0.1..1.0 tu
		prio := 2 + int(rng.next()%uint64(p.PriorityBands))
		// The fault draw happens after the generator draws, so a plan
		// never shifts the unfaulted jobs' parameters.
		f := p.Faults.JobFault(0, i)
		if f.Dropped {
			res.Dropped++
			continue
		}
		release = release.Add(f.Jitter)
		cost = f.Apply(cost)
		ex.Spawn(fmt.Sprintf("job%d", i), prio, release, func(tc *exec.TC) {
			tc.Consume(cost)
			res.Completed++
			res.Fingerprint = (res.Fingerprint ^ uint64(i)) * 1099511628211
			res.Fingerprint = (res.Fingerprint ^ uint64(tc.Now())) * 1099511628211
		})
	}

	err := ex.Run(res.Horizon)
	if err == nil {
		err = ex.CheckInvariants()
	}
	res.FinalTime = ex.Now()
	res.PeakWorkers = ex.PoolPeak()
	res.Migrations = ex.Migrations()
	for _, th := range ex.Threads() {
		res.TotalConsumed += th.Consumed()
	}
	ex.Shutdown()
	if err != nil {
		return nil, err
	}
	return res, nil
}
