package experiments

import (
	"fmt"
	"sort"

	"rtsj/internal/exec"
	"rtsj/internal/rtime"
)

// SMP scenario family: the multiprocessor experiments the paper never
// touched, opened up by the executive's M-CPU generalization (exec smp.go).
// Each run schedules a deterministic synthetic periodic task set on M
// virtual CPUs under a migration policy (global / partitioned / clustered)
// and a scheduler (fixed-priority rate-monotonic, or EDF via the
// job-level dynamic-priority hook) and measures deadline misses, skipped
// releases and cross-CPU migrations. The tasks run as activation entities
// (exec.SpawnPeriodicOn). Everything is a pure function of the parameters,
// so the SMP tests pin each configuration's fingerprint.

// SMP scenario names.
const (
	// SMPMissCurve sweeps per-CPU utilization and records the deadline
	// miss curve of the configured policy/scheduler — the global-vs-
	// partitioned EDF/FP comparison.
	SMPMissCurve = "miss-curve"
	// SMPMigration draws one task set at 0.75 utilization per CPU and runs
	// it at each per-migration cache penalty (exec.Options.MigrationCost)
	// of the sweep, under a policy that can migrate.
	SMPMigration = "migration-sweep"
)

// SMPScenarios lists the scenario family in canonical order.
func SMPScenarios() []string { return []string{SMPMissCurve, SMPMigration} }

// SMPParams configures one SMP run. Everything is derived
// deterministically from Seed, so two runs schedule identically.
type SMPParams struct {
	// Scenario is one of the SMP* names.
	Scenario string
	// CPUs is the virtual CPU count (default 4).
	CPUs int
	// Policy selects the migration policy. The migration sweep requires a
	// policy that can migrate (it rejects Partitioned).
	Policy exec.MigrationPolicy
	// Sched selects the scheduler: "fp" (rate-monotonic fixed priorities,
	// the default) or "edf" (job-level dynamic priorities by absolute
	// deadline).
	Sched string
	// Tasks is the periodic task count (default 12).
	Tasks int
	// Seed drives periods, utilization shares and the affinity packing.
	Seed uint64
	// HorizonTU is the observation window in time units (default 400).
	HorizonTU float64
	// MigrationCost is the per-migration penalty charged to a mid-consume
	// thread resuming on a new CPU (the migration sweep overrides it per
	// point).
	MigrationCost rtime.Duration
}

// DefaultSMPParams returns the canonical configuration of a scenario (the
// one whose fingerprint the SMP tests pin).
func DefaultSMPParams(scenario string) SMPParams {
	return SMPParams{
		Scenario:  scenario,
		CPUs:      4,
		Sched:     "fp",
		Tasks:     12,
		Seed:      2007,
		HorizonTU: 400,
	}
}

// SMPPoint is one point of a sweep: the swept parameter (per-CPU
// utilization for the miss curve, migration cost in time units for the
// migration sweep) and the counters measured there.
type SMPPoint struct {
	Param      float64 // utilization per CPU, or migration cost in tu
	Releases   int     // completed releases
	Misses     int     // completions past their implicit deadline
	Skips      int     // releases skipped by overruns
	Migrations int     // cross-CPU thread migrations
}

// SMPResult summarizes one SMP run (the whole sweep).
type SMPResult struct {
	Scenario string               // scenario name the run came from
	CPUs     int                  // virtual CPU count
	Policy   exec.MigrationPolicy // migration policy
	Sched    string               // "fp" or "edf"
	Points   []SMPPoint           // the sweep, in parameter order
	// Releases totals the sweep's completed releases.
	Releases int
	// Misses totals the sweep's deadline misses.
	Misses int
	// Skips totals the releases skipped by overruns.
	Skips int
	// Migrations totals the cross-CPU thread migrations.
	Migrations int
	// FinalTime is the virtual clock of the last point's run.
	FinalTime rtime.Time
	// Fingerprint hashes every completion (task, instant) in schedule
	// order plus the per-point counters: runs are schedule-identical iff
	// it matches.
	Fingerprint uint64
	// Violations lists executive invariant violations (empty on a healthy
	// run).
	Violations []string
}

// smpTask is one generated periodic task.
type smpTask struct {
	period rtime.Duration
	cost   rtime.Duration
	util   float64
	prio   int // rate-monotonic priority (fp); initial priority (edf)
	cpu    int // static affinity, -1 under Global
}

// smpPeriods is the period palette, in time units.
var smpPeriods = []float64{8, 10, 12, 16, 20, 24, 32, 40}

// genSMPTasks derives the task set for one sweep point: periods from the
// palette, utilization shares normalized to util*CPUs, rate-monotonic
// priorities, and (for the pinning policies) a worst-fit-decreasing
// affinity packing by utilization.
func genSMPTasks(p SMPParams, point int, util float64) []smpTask {
	rng := &stressRand{s: p.Seed ^ (uint64(point)+1)*0x9e3779b97f4a7c15}
	tasks := make([]smpTask, p.Tasks)
	totalW := 0.0
	weights := make([]float64, p.Tasks)
	for i := range tasks {
		tasks[i].period = rtime.TUs(smpPeriods[rng.next()%uint64(len(smpPeriods))])
		weights[i] = float64(1 + rng.next()%9)
		totalW += weights[i]
	}
	totalU := util * float64(p.CPUs)
	for i := range tasks {
		tasks[i].util = totalU * weights[i] / totalW
		cost := rtime.Duration(tasks[i].util * float64(tasks[i].period))
		if cost < rtime.TU/100 {
			cost = rtime.TU / 100
		}
		if cost > tasks[i].period {
			cost = tasks[i].period // a task can at most saturate its own CPU share
		}
		tasks[i].cost = cost
	}
	// Rate-monotonic: shorter period ranks higher; ties by index.
	order := make([]int, p.Tasks)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tasks[order[a]].period < tasks[order[b]].period })
	for rank, i := range order {
		tasks[i].prio = 2 + p.Tasks - rank
	}
	// Static affinity: worst-fit decreasing by utilization, deterministic.
	for i := range tasks {
		tasks[i].cpu = -1
	}
	if p.Policy != exec.Global {
		byUtil := make([]int, p.Tasks)
		for i := range byUtil {
			byUtil[i] = i
		}
		sort.SliceStable(byUtil, func(a, b int) bool { return tasks[byUtil[a]].util > tasks[byUtil[b]].util })
		load := make([]float64, p.CPUs)
		for _, i := range byUtil {
			best := 0
			for c := 1; c < p.CPUs; c++ {
				if load[c] < load[best] {
					best = c
				}
			}
			tasks[i].cpu = best
			load[best] += tasks[i].util
		}
	}
	return tasks
}

// RunSMP builds and runs the scenario sweep. The executive invariants are
// checked after every point; violations are collected, not fatal.
func RunSMP(p SMPParams) (*SMPResult, error) {
	def := DefaultSMPParams(p.Scenario)
	if p.CPUs <= 0 {
		p.CPUs = def.CPUs
	}
	if p.Tasks <= 0 {
		p.Tasks = def.Tasks
	}
	if p.HorizonTU <= 0 {
		p.HorizonTU = def.HorizonTU
	}
	if p.Sched == "" {
		p.Sched = def.Sched
	}
	if p.Sched != "fp" && p.Sched != "edf" {
		return nil, fmt.Errorf("smp: unknown scheduler %q (want fp or edf)", p.Sched)
	}
	res := &SMPResult{
		Scenario:    p.Scenario,
		CPUs:        p.CPUs,
		Policy:      p.Policy,
		Sched:       p.Sched,
		Fingerprint: 14695981039346656037,
	}
	var sweep []float64
	var fixed []smpTask // the migration sweep's one task set
	switch p.Scenario {
	case SMPMissCurve:
		sweep = []float64{0.55, 0.70, 0.85, 1.00}
	case SMPMigration:
		if p.Policy == exec.Partitioned {
			return nil, fmt.Errorf("smp: the migration sweep needs a policy that can migrate (got partitioned)")
		}
		sweep = []float64{0, 0.1, 0.25, 0.5, 1.0}
		fixed = genSMPTasks(p, 0, 0.75)
	default:
		return nil, fmt.Errorf("smp: unknown scenario %q (want %v)", p.Scenario, SMPScenarios())
	}
	for i, param := range sweep {
		tasks, cost := fixed, rtime.TUs(param)
		if tasks == nil { // the miss curve sweeps utilization
			tasks, cost = genSMPTasks(p, i, param), p.MigrationCost
		}
		pt, err := runSMPOnce(p, res, tasks, cost)
		if err != nil {
			return nil, err
		}
		pt.Param = param
		res.Points = append(res.Points, pt)
		res.Releases += pt.Releases
		res.Misses += pt.Misses
		res.Skips += pt.Skips
		res.Migrations += pt.Migrations
	}
	for _, pt := range res.Points {
		res.Fingerprint = (res.Fingerprint ^ uint64(pt.Releases)) * 1099511628211
		res.Fingerprint = (res.Fingerprint ^ uint64(pt.Misses)) * 1099511628211
		res.Fingerprint = (res.Fingerprint ^ uint64(pt.Skips)) * 1099511628211
		res.Fingerprint = (res.Fingerprint ^ uint64(pt.Migrations)) * 1099511628211
	}
	if res.Releases == 0 {
		res.Violations = append(res.Violations, "no releases completed")
	}
	return res, nil
}

// runSMPOnce runs one sweep point's tasks on a fresh executive and folds
// its completions into the result fingerprint.
func runSMPOnce(p SMPParams, res *SMPResult, tasks []smpTask, cost rtime.Duration) (SMPPoint, error) {
	var pt SMPPoint
	ex := exec.NewWithOptions(nil, exec.Options{
		CPUs:          p.CPUs,
		Migration:     p.Policy,
		MigrationCost: cost,
	})
	horizon := rtime.AtTU(p.HorizonTU)
	for i, t := range tasks {
		deadline := t.period // implicit deadline
		spec := exec.ActivationSpec{Period: t.period}
		if p.Sched == "edf" {
			spec.Priority = func(rel rtime.Time) int { return -int(int64(rel.Add(deadline))) }
		}
		ex.SpawnPeriodicOn(fmt.Sprintf("tau%d", i), t.prio, t.cpu, spec, func(tc *exec.TC) {
			tc.Consume(t.cost)
			now := tc.Now()
			pt.Releases++
			if now > tc.Thread().CurrentRelease().Add(deadline) {
				pt.Misses++
			}
			res.Fingerprint = (res.Fingerprint ^ uint64(i)) * 1099511628211
			res.Fingerprint = (res.Fingerprint ^ uint64(now)) * 1099511628211
		})
	}
	err := ex.Run(horizon)
	if err == nil {
		if ierr := ex.CheckInvariants(); ierr != nil {
			res.Violations = append(res.Violations, ierr.Error())
		}
	}
	for _, th := range ex.Threads() {
		pt.Skips += th.MissedActivations()
	}
	pt.Migrations = ex.Migrations()
	res.FinalTime = ex.Now()
	ex.Shutdown()
	return pt, err
}
