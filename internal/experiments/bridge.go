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
// system's server policy selects the framework server: polling policies map
// to PollingTaskServer, deferrable ones to DeferrableTaskServer (executions
// are inherently "limited": that is the point of the paper).
func RunExecution(sys sim.System, m ExecModel, horizon rtime.Time) (*ExecOutcome, error) {
	return runExecutionSink(sys, m, horizon, trace.New())
}

// RunExecutionMetrics executes sys without recording a trace: the fast path
// for table and matrix cells, which only consume the servers' event
// records. The executive then skips all trace bookkeeping — no per-slice
// segment appends, no entity registration — mirroring RunSimulationMetrics
// on the simulation side.
func RunExecutionMetrics(sys sim.System, m ExecModel, horizon rtime.Time) (*ExecOutcome, error) {
	return runExecutionSink(sys, m, horizon, trace.Nop{})
}

func runExecutionSink(sys sim.System, m ExecModel, horizon rtime.Time, sink trace.Sink) (*ExecOutcome, error) {
	if sys.Server == nil {
		return nil, fmt.Errorf("experiments: execution needs a task server")
	}
	vm := rtsjvm.NewVMSink(sink, m.Overheads, m.execOptions())
	spec := *sys.Server
	name := spec.Name
	params := core.NewTaskServerParameters(0, spec.Capacity, spec.Period)
	var srv core.TaskServer
	switch spec.Policy {
	case sim.PollingServer, sim.LimitedPollingServer:
		if name == "" {
			name = "PS"
		}
		srv = core.NewPollingTaskServer(vm, name, spec.Priority, params)
	case sim.DeferrableServer, sim.LimitedDeferrableServer:
		if name == "" {
			name = "DS"
		}
		srv = core.NewDeferrableTaskServer(vm, name, spec.Priority, params)
	case sim.SporadicServer:
		if name == "" {
			name = "SS"
		}
		srv = core.NewSporadicTaskServer(vm, name, spec.Priority, params)
	default:
		return nil, fmt.Errorf("experiments: policy %v has no framework implementation", spec.Policy)
	}

	for _, pt := range sys.Periodics {
		pp := &rtsjvm.PeriodicParameters{Start: pt.Offset, Period: pt.Period, Cost: pt.Cost, Deadline: pt.Deadline}
		vm.NewActivationThread(pt.Name, pt.Priority, pp, func(r *rtsjvm.RTC) { r.Consume(pt.Cost) })
	}

	for i := range sys.Aperiodics {
		a := sys.Aperiodics[i]
		jn := a.Name
		if jn == "" {
			jn = sim.AperiodicName(i) // must match the sim engine's naming
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
	}

	err := vm.Run(horizon)
	if err == nil {
		// The scheduler invariant net runs after every execution: one
		// O(threads) pass, so the whole experiment corpus doubles as its
		// test bed.
		if ierr := vm.Exec().CheckInvariants(); ierr != nil {
			err = fmt.Errorf("experiments: post-run invariants: %w", ierr)
		}
	}
	vm.Shutdown()
	if err != nil {
		return nil, err
	}
	return &ExecOutcome{Trace: vm.Trace(), Records: srv.Records(), Server: srv}, nil
}

// SimEvents extracts the metric events of a simulation.
func SimEvents(r *sim.Result) []metrics.Event { return metrics.FromSimResult(r) }

// ExecEvents extracts the metric events of an execution.
func ExecEvents(o *ExecOutcome) []metrics.Event { return metrics.FromRecords(o.Records) }
