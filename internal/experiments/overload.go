package experiments

import (
	"fmt"

	"rtsj/internal/core"
	"rtsj/internal/exec"
	"rtsj/internal/faults"
	"rtsj/internal/gen"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/sim"
)

// Overload scenario family: deterministic workloads that drive a task
// server past its capacity and observe the graceful-degradation machinery
// — load shedding (core.TaskServer.SetMaxPending), capacity clamping, and
// the hard periodic set that must keep every deadline while the server
// sheds. Each run threads a faults.Checker through the execution
// (conservation of released vs. completed vs. shed work, monotone
// counters, non-negative capacity) and checks the executive's scheduler
// invariants afterwards; the overload tests pin the per-run fingerprint.
// The hard periodics run as activation-mode realtime threads
// (rtsjvm.VM.NewActivationThread).

// Overload scenario names.
const (
	// OverloadMissStorm floods a deferrable server with MMPP arrival
	// bursts far beyond its capacity: the server sheds, the hard periodic
	// set keeps every deadline.
	OverloadMissStorm = "miss-storm"
	// OverloadTransient applies a short, strong overload pulse and then
	// lets the system recover: the pending backlog must drain to zero
	// inside the drain margin.
	OverloadTransient = "transient"
	// OverloadSaturation sweeps a polling server's capacity under a fixed
	// Poisson load, folding the whole sweep into one fingerprint.
	OverloadSaturation = "saturation"
)

// OverloadScenarios lists the scenario family in canonical order.
func OverloadScenarios() []string {
	return []string{OverloadMissStorm, OverloadTransient, OverloadSaturation}
}

// OverloadParams configures one overload run. Everything is derived
// deterministically from Seed, so two runs schedule identically.
type OverloadParams struct {
	// Scenario is one of the Overload* names.
	Scenario string
	// Events is the approximate number of aperiodic events (scales the
	// horizon); 0 uses the scenario default.
	Events int
	// Seed drives arrivals and costs; 0 uses the scenario default.
	Seed int64
	// Faults optionally injects workload-level faults (drops, jitter,
	// cost overruns) on top of the scenario's own overload.
	Faults *faults.Plan
	// MaxPending bounds the server's pending queue; 0 uses the scenario
	// default. Releases beyond the bound are shed.
	MaxPending int
	// PeriodicMiss selects the hard periodics' overrun policy
	// (exec.MissSkip default).
	PeriodicMiss exec.MissPolicy
}

// DefaultOverloadParams returns the canonical configuration of a scenario
// (the one whose fingerprint the tests pin).
func DefaultOverloadParams(scenario string) OverloadParams {
	p := OverloadParams{Scenario: scenario, Seed: 2007}
	switch scenario {
	case OverloadTransient:
		p.Events = 200
		p.MaxPending = 32
	case OverloadSaturation:
		p.Events = 150
		p.MaxPending = 16
	default: // miss-storm
		p.Events = 400
		p.MaxPending = 64
	}
	return p
}

// OverloadResult summarizes one overload run (for the saturation sweep,
// the whole sweep).
type OverloadResult struct {
	Scenario string // scenario name the run came from
	// Events is the number of generated aperiodic events; Released counts
	// the ones that actually reached a server before the horizon.
	Events   int
	Released int // events that reached a server before the horizon
	// Served/Interrupted/Rejected/Shed/Pending partition the released
	// events (the conservation invariant).
	Served      int
	Interrupted int // interrupted mid-service at capacity exhaustion
	Rejected    int // refused admission on declared cost
	Shed        int // dropped at release by the bounded pending queue
	Pending     int // still queued when the horizon closed
	// PeriodicReleases and PeriodicMisses cover the hard periodic set;
	// the miss-storm scenario requires PeriodicMisses == 0.
	PeriodicReleases int
	PeriodicMisses   int // hard periodic deadline misses
	// CapacityFloor is the deepest pre-clamp capacity excursion observed.
	CapacityFloor rtime.Duration
	// PeakWorkers is the pool high-water mark (exec.Exec.PoolPeak).
	PeakWorkers int
	// FinalTime is the virtual clock when the run stopped.
	FinalTime rtime.Time
	// Fingerprint hashes periodic completions and per-event outcomes in
	// schedule order: runs are behavior-identical iff it matches.
	Fingerprint uint64
	// Violations lists every invariant violation the checker caught
	// (empty on a healthy run).
	Violations []string
}

// overloadSystem is one concrete workload: a generated aperiodic storm
// plus the fixed hard periodic set, under one server configuration.
type overloadSystem struct {
	jobs      []sim.AperiodicJob
	policy    sim.ServerPolicy
	capacity  rtime.Duration
	period    rtime.Duration
	horizon   rtime.Time
	periodics []sim.PeriodicTask
}

// hardPeriodics is the fixed hard real-time set every scenario carries:
// utilization ~0.25, schedulable under worst-case server interference for
// every scenario configuration (response-time analysis: R1=9<=12,
// R2=16<=18, R3=33<=36 with a DS 4tu/6tu including back-to-back hits).
func hardPeriodics() []sim.PeriodicTask {
	return []sim.PeriodicTask{
		{Name: "tau1", Period: 12 * rtime.TU, Cost: 1 * rtime.TU, Priority: 50},
		{Name: "tau2", Period: 18 * rtime.TU, Cost: 2 * rtime.TU, Priority: 40},
		{Name: "tau3", Period: 36 * rtime.TU, Cost: 2 * rtime.TU, Priority: 30},
	}
}

// serverPrio is the server priority: above every periodic, as the paper
// requires.
const serverPrio = 100

// buildOverloadSystem derives the scenario workload from the parameters.
func buildOverloadSystem(p OverloadParams) (*overloadSystem, error) {
	const serverPeriod = 6.0
	sys := &overloadSystem{
		policy:    sim.DeferrableServer,
		capacity:  rtime.TUs(4),
		period:    rtime.TUs(serverPeriod),
		periodics: hardPeriodics(),
	}
	g := gen.Params{
		AverageCost:    0.5,
		StdDeviation:   0.2,
		ServerCapacity: 4,
		ServerPeriod:   serverPeriod,
		NbGeneration:   1,
		Seed:           p.Seed,
	}
	switch p.Scenario {
	case OverloadMissStorm:
		// MMPP bursts at 12x the calm density: ~96 arrivals (~48tu of
		// demand) per server period inside a burst against 4tu of
		// capacity — a storm the server can only shed.
		g.Arrivals = gen.MMPPArrivals
		g.TaskDensity = 8
		g.BurstFactor = 12
		g.HorizonPeriods = max(4, p.Events/30) // avg ~30 events/period
	case OverloadTransient:
		// Calmer base load (~47% of the server) with strong but short
		// pulses: the backlog must drain inside the 10-period margin
		// appended after the generation horizon.
		g.Arrivals = gen.MMPPArrivals
		g.TaskDensity = 3
		g.BurstFactor = 14
		g.BurstMeanPeriods = 1
		g.CalmMeanPeriods = 4
		g.HorizonPeriods = max(4, p.Events*5/54) // avg ~10.8 events/period
	case OverloadSaturation:
		// Poisson load on a polling server; the capacity sweep happens in
		// RunOverload.
		g.Arrivals = gen.PoissonArrivals
		g.TaskDensity = 2.5
		g.HorizonPeriods = max(4, p.Events*2/5)
		sys.policy = sim.PollingServer
	default:
		return nil, fmt.Errorf("overload: unknown scenario %q", p.Scenario)
	}
	generated := gen.Generate(g)[0]
	sys.jobs = generated.Aperiodics
	sys.horizon = g.Horizon()
	if p.Scenario == OverloadTransient {
		sys.horizon = sys.horizon.Add(10 * sys.period)
	}
	// Workload-level faults apply before any engine sees the jobs, so the
	// faulted workload is identical across every configuration.
	if p.Faults.Enabled() {
		faulted := p.Faults.ApplySystem(sim.System{Aperiodics: sys.jobs}, 0)
		sys.jobs = faulted.Aperiodics
	}
	return sys, nil
}

// RunOverload builds and runs one overload scenario. The saturation
// scenario runs its whole capacity sweep (1..4tu) and folds the sub-runs
// into one result; the other scenarios are single runs.
func RunOverload(p OverloadParams) (*OverloadResult, error) {
	def := DefaultOverloadParams(p.Scenario)
	if p.Events <= 0 {
		p.Events = def.Events
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	if p.MaxPending <= 0 {
		p.MaxPending = def.MaxPending
	}
	sys, err := buildOverloadSystem(p)
	if err != nil {
		return nil, err
	}
	res := &OverloadResult{Scenario: p.Scenario, Events: len(sys.jobs), Fingerprint: 14695981039346656037}
	caps := []rtime.Duration{sys.capacity}
	if p.Scenario == OverloadSaturation {
		caps = []rtime.Duration{rtime.TUs(1), rtime.TUs(2), rtime.TUs(3), rtime.TUs(4)}
	}
	for _, capa := range caps {
		sub := *sys
		sub.capacity = capa
		if err := runOverloadOnce(p, &sub, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runOverloadOnce executes one workload on one server configuration,
// folding counters, fingerprint and invariant violations into res.
func runOverloadOnce(p OverloadParams, sys *overloadSystem, res *OverloadResult) error {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	params := core.NewTaskServerParameters(0, sys.capacity, sys.period)
	var srv core.TaskServer
	if sys.policy == sim.PollingServer {
		srv = core.NewPollingTaskServer(vm, "PS", serverPrio, params)
	} else {
		srv = core.NewDeferrableTaskServer(vm, "DS", serverPrio, params)
	}
	srv.SetMaxPending(p.MaxPending)
	srv.SetClampCapacity(true)

	check := &faults.Checker{}
	fp := res.Fingerprint
	periodicReleases, periodicMisses := 0, 0
	for ti := range sys.periodics {
		pt := sys.periodics[ti]
		taskIdx := uint64(ti)
		pp := &rtsjvm.PeriodicParameters{Period: pt.Period, Cost: pt.Cost, Miss: p.PeriodicMiss}
		// Each release is one activation: exact declared cost, deadline
		// checked at completion, completion folded into the fingerprint in
		// schedule order.
		vm.NewActivationThread(pt.Name, pt.Priority, pp, func(r *rtsjvm.RTC) {
			rel := r.CurrentRelease()
			r.Consume(pt.Cost)
			periodicReleases++
			if r.Now() > rel.Add(pt.Period) {
				periodicMisses++
			}
			fp = (fp ^ taskIdx) * 1099511628211
			fp = (fp ^ uint64(r.Now())) * 1099511628211
		})
	}

	released := 0
	for i := range sys.jobs {
		a := sys.jobs[i]
		if a.Release >= sys.horizon {
			continue // never fired inside the observation window
		}
		jn := a.Name
		h := core.NewServableAsyncEventHandler(srv, jn, a.DeclaredCost()).SetActualCost(a.Cost)
		e := core.NewServableAsyncEvent(vm, jn)
		e.AddServableHandler(h)
		vm.NewOneShotTimer(a.Release, e, jn).Start()
		released++
	}

	// Mid-run invariant sampling: one probe per server period, registered
	// upfront (identically in every configuration, so the sampling itself
	// never perturbs the schedule comparison).
	ex := vm.Exec()
	for t := rtime.Time(sys.period); t < sys.horizon; t = t.Add(sys.period) {
		ex.At(t, func() {
			check.Monotone("shed", srv.ShedCount())
			check.Monotone("periodic-misses", periodicMisses)
			check.Monotone("periodic-releases", periodicReleases)
			check.Checkf(srv.PendingCount() >= 0, "pending count negative: %d", srv.PendingCount())
			if c, ok := srv.(interface{ Capacity() rtime.Duration }); ok {
				check.NonNegative("clamped capacity", c.Capacity())
			}
		})
	}

	err := vm.Run(sys.horizon)
	res.PeakWorkers = max(res.PeakWorkers, ex.PoolPeak())
	res.FinalTime = ex.Now()
	if ierr := ex.CheckInvariants(); ierr != nil {
		check.Checkf(false, "executive invariants: %v", ierr)
	}
	vm.Shutdown()
	if err != nil {
		return err
	}

	// Conservation: every release that reached the server has exactly one
	// outcome, and the buckets sum back to the release count.
	ct := faults.Counts{Released: len(srv.Records())}
	for _, rec := range srv.Records() {
		outcomes := 0
		if rec.Served {
			ct.Served++
			outcomes++
		}
		if rec.Interrupted {
			ct.Interrupted++
			outcomes++
		}
		if rec.Rejected {
			ct.Rejected++
			outcomes++
		}
		if rec.Shed {
			ct.Shed++
			outcomes++
		}
		if outcomes == 0 {
			ct.Pending++
		}
		check.Checkf(outcomes <= 1, "event %s has %d outcomes", rec.Handler, outcomes)
	}
	check.Conservation(ct)
	check.Checkf(ct.Released == released,
		"released %d records for %d fired events", ct.Released, released)
	check.Checkf(ct.Shed == srv.ShedCount(),
		"shed records %d != server shed count %d", ct.Shed, srv.ShedCount())
	if p.Scenario == OverloadTransient {
		check.Checkf(ct.Pending == 0,
			"transient overload did not drain: %d events still pending", ct.Pending)
	}

	// Fold the per-event outcomes (registration order = schedule order).
	for i, rec := range srv.Records() {
		code := uint64(0)
		switch {
		case rec.Served:
			code = 1
		case rec.Interrupted:
			code = 2
		case rec.Rejected:
			code = 3
		case rec.Shed:
			code = 4
		}
		fp = (fp ^ uint64(i)) * 1099511628211
		fp = (fp ^ code) * 1099511628211
		fp = (fp ^ uint64(rec.Released)) * 1099511628211
		fp = (fp ^ uint64(rec.Finished)) * 1099511628211
	}

	res.Released += ct.Released
	res.Served += ct.Served
	res.Interrupted += ct.Interrupted
	res.Rejected += ct.Rejected
	res.Shed += ct.Shed
	res.Pending += ct.Pending
	res.PeriodicReleases += periodicReleases
	res.PeriodicMisses += periodicMisses
	if floor := srv.CapacityFloor(); floor < res.CapacityFloor {
		res.CapacityFloor = floor
	}
	res.Fingerprint = fp
	res.Violations = append(res.Violations, check.Violations()...)
	return nil
}
