// Package experiments regenerates every table and figure of the paper's
// evaluation: the three hand-built scenarios (Figures 2-4) and the four
// measurement tables (Tables 2-5) over the six generated system sets.
//
// It bridges the two engines: RunSimulation executes a workload on RTSS
// (internal/sim) under the *ideal* literature policies — the paper's
// "simulation" columns — and RunExecution realizes the same workload on the
// Task Server Framework over the RTSJ emulation — the paper's "execution"
// columns, including overheads and WCET noise.
//
// Every experiment family lowers its periodic work onto the executive's
// activation path (rtsjvm.VM.NewActivationThread, exec.SpawnPeriodic): one
// body dispatch per release, the body return standing in for the RTSJ's
// WaitForNextPeriod. The looping form stays in the executive, where its
// differential tests pin the two forms to identical schedules.
package experiments

import (
	"cmp"
	"fmt"

	"rtsj/internal/core"
	"rtsj/internal/exec"
	"rtsj/internal/gen"
	"rtsj/internal/metrics"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/sim"
	"rtsj/internal/trace"
)

// ExecModel configures the execution platform: VM overheads and the WCET
// noise of handler bodies. On the paper's platform (the RTSJ reference
// implementation on a P4) both exist but are implicit; here they are
// explicit so the executions are reproducible.
type ExecModel struct {
	Overheads rtsjvm.Overheads // VM costs charged by the emulation
	// CostNoise inflates each handler's actual demand over its declared
	// cost: actual = declared * (1 + u*CostNoise), u uniform per event.
	// This models execution-time jitter (JIT, cache, GC pauses) and is
	// the main source of interruptions for heterogeneous workloads.
	CostNoise float64
	// NoiseSeed and SysIndex derive the deterministic per-event u.
	NoiseSeed int64
	SysIndex  int // system index within its set, for noise derivation
	// CPUs sets the executive's virtual CPU count (exec.Options.CPUs; 0
	// means 1) under the Global migration policy. The paper's experiments
	// are uniprocessor; M=1 runs the same code path byte-identically
	// (TestExecutionTablesSMPM1).
	CPUs int
	// Stats optionally wires the executive's kernel counters
	// (exec.Options.Stats). Observational only: table and matrix outputs
	// are byte-identical with or without it (pinned by the obs
	// differential test).
	Stats *exec.Stats
}

// execOptions maps the model onto the executive configuration.
func (m ExecModel) execOptions() exec.Options {
	return exec.Options{CPUs: m.CPUs, Stats: m.Stats}
}

// DefaultExecModel is the execution platform used for Tables 3 and 5. Its
// four overheads and its CostNoise are hand-set, not yet fitted to the
// paper's measurements.
func DefaultExecModel() ExecModel {
	return ExecModel{
		Overheads: rtsjvm.Overheads{
			TimerFire:    rtime.TUs(0.15),
			EventRelease: rtime.TUs(0.05),
			Dispatch:     rtime.TUs(0.01),
			Interrupt:    rtime.TUs(0.05),
		},
		CostNoise: 0.12,
		NoiseSeed: 2007,
	}
}

// ZeroExecModel is a cost-free execution platform: with it, the framework
// must reproduce the limited-policy simulation exactly (differential
// testing).
func ZeroExecModel() ExecModel { return ExecModel{} }

// ExecOutcome is the result of one framework execution. Trace is nil for
// metrics-only executions (RunExecutionMetrics).
type ExecOutcome struct {
	Trace   *trace.Trace        // recorded schedule; nil for metrics-only runs
	Records []*core.EventRecord // per-event service records, release order
	Server  core.TaskServer     // the server instance that ran the handlers
}

// RunSimulation simulates sys on RTSS under its configured server policy,
// recording a full trace (for the figures and Gantt comparisons).
func RunSimulation(sys sim.System, horizon rtime.Time) (*sim.Result, error) {
	tr := trace.New()
	return sim.Run(sys, sim.NewFP(sys, tr), horizon, tr)
}

// RunSimulationMetrics simulates sys without recording a trace: the fast
// path for table and matrix cells, which only consume job outcomes. The
// engine skips all trace bookkeeping and label formatting.
func RunSimulationMetrics(sys sim.System, horizon rtime.Time) (*sim.Result, error) {
	return sim.Run(sys, sim.NewFP(sys, nil), horizon, nil)
}

// RunExecution realizes sys on the Task Server Framework and runs it on
// the RTSJ emulation until the horizon, recording a full trace. The
// system's server policy selects the framework server (see newTaskServer).
func RunExecution(sys sim.System, m ExecModel, horizon rtime.Time) (*ExecOutcome, error) {
	return runExecution(sys, m, horizon, trace.New())
}

// RunExecutionMetrics executes sys without recording a trace: the fast path
// for table and matrix cells, which only consume the servers' event
// records. The executive then skips all trace bookkeeping — no per-slice
// segment appends, no entity registration — mirroring RunSimulationMetrics
// on the simulation side.
func RunExecutionMetrics(sys sim.System, m ExecModel, horizon rtime.Time) (*ExecOutcome, error) {
	return runExecution(sys, m, horizon, nil)
}

func runExecution(sys sim.System, m ExecModel, horizon rtime.Time, tr *trace.Trace) (*ExecOutcome, error) {
	vm := rtsjvm.NewVM(tr, m.Overheads, m.execOptions())
	srv, err := runOnVM(vm, sys, m, horizon)
	vm.Shutdown()
	if err != nil {
		return nil, err
	}
	return &ExecOutcome{Trace: vm.Trace(), Records: srv.Records(), Server: srv}, nil
}

// runOnVM realizes sys on vm — fresh from NewVM, or just reset — and runs
// it to the horizon. It returns the server that ran the handlers, and
// leaves the VM's bodies parked where the horizon found them: the caller
// resets the VM for its next system or shuts it down.
func runOnVM(vm *rtsjvm.VM, sys sim.System, m ExecModel, horizon rtime.Time) (core.TaskServer, error) {
	if sys.Server == nil {
		return nil, fmt.Errorf("experiments: execution needs a task server")
	}
	srv, err := newTaskServer(vm, *sys.Server)
	if err != nil {
		return nil, err
	}
	for _, pt := range sys.Periodics {
		pp := &rtsjvm.PeriodicParameters{Start: pt.Offset, Period: pt.Period, Cost: pt.Cost, Deadline: pt.Deadline}
		vm.NewActivationThread(pt.Name, pt.Priority, pp, func(r *rtsjvm.RTC) { r.Consume(pt.Cost) })
	}
	releaseAperiodics(vm, srv, sys.Aperiodics, m, horizon)

	if err := vm.Run(horizon); err != nil {
		return nil, err
	}
	// The scheduler invariant net runs after every execution: one
	// O(threads) pass, so the whole experiment corpus doubles as its test
	// bed.
	if err := vm.Exec().CheckInvariants(); err != nil {
		return nil, fmt.Errorf("experiments: post-run invariants: %w", err)
	}
	return srv, nil
}

// newTaskServer builds the framework server spec asks for on vm: polling
// policies map to PollingTaskServer, deferrable ones to
// DeferrableTaskServer and the sporadic one to SporadicTaskServer
// (executions are inherently "limited": that is the point of the paper).
// An unnamed server is named "PS", "DS" or "SS" after its class.
func newTaskServer(vm *rtsjvm.VM, spec sim.ServerSpec) (core.TaskServer, error) {
	params := core.NewTaskServerParameters(0, spec.Capacity, spec.Period)
	switch spec.Policy {
	case sim.PollingServer, sim.LimitedPollingServer:
		return core.NewPollingTaskServer(vm, cmp.Or(spec.Name, "PS"), spec.Priority, params), nil
	case sim.DeferrableServer, sim.LimitedDeferrableServer:
		return core.NewDeferrableTaskServer(vm, cmp.Or(spec.Name, "DS"), spec.Priority, params), nil
	case sim.SporadicServer:
		return core.NewSporadicTaskServer(vm, cmp.Or(spec.Name, "SS"), spec.Priority, params), nil
	}
	return nil, fmt.Errorf("experiments: policy %v has no framework implementation", spec.Policy)
}

// releaseAperiodics wires each job released before the horizon to srv: a
// servable handler, named as the sim engine names the job, bound to its
// own ServableAsyncEvent, which a one-shot timer fires at the release. The
// handler's actual demand is the job's cost inflated by the model's cost
// noise. It returns how many jobs it armed.
func releaseAperiodics(vm *rtsjvm.VM, srv core.TaskServer, jobs []sim.AperiodicJob, m ExecModel, horizon rtime.Time) int {
	armed := 0
	for i := range jobs {
		a := jobs[i]
		if a.Release >= horizon {
			continue // never fires inside the observation window
		}
		jn := a.Name
		if jn == "" {
			jn = sim.AperiodicName(i)
		}
		actual := a.Cost
		if m.CostNoise > 0 {
			u := gen.Noise(m.NoiseSeed, m.SysIndex, i)
			actual = rtime.Duration(float64(actual) * (1 + u*m.CostNoise))
		}
		h := core.NewServableAsyncEventHandler(srv, jn, a.DeclaredCost()).SetActualCost(actual)
		e := core.NewServableAsyncEvent(vm, jn)
		e.AddServableHandler(h)
		vm.NewOneShotTimer(a.Release, e, jn).Start()
		armed++
	}
	return armed
}

// SimEvents extracts the metric events of a simulation.
func SimEvents(r *sim.Result) []metrics.Event { return metrics.FromSimResult(r) }

// ExecEvents extracts the metric events of an execution.
func ExecEvents(o *ExecOutcome) []metrics.Event { return metrics.FromRecords(o.Records) }
