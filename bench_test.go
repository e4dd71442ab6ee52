// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations called out in DESIGN.md. Each table benchmark reports
// the measured AART/AIR/ASR of a representative set as custom metrics, so
// `go test -bench .` both times the harness and re-derives the paper's
// numbers.
package rtsj_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"rtsj/internal/analysis"
	"rtsj/internal/core"
	"rtsj/internal/exec"
	"rtsj/internal/experiments"
	"rtsj/internal/gen"
	"rtsj/internal/harness"
	"rtsj/internal/metrics"
	"rtsj/internal/obs"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/sim"
	"rtsj/internal/trace"
)

// --- Figures 2-4: the three scenarios on the framework -------------------

func benchmarkFigure(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure(n)
		if err != nil {
			b.Fatal(err)
		}
		if fig.ExecGantt == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure2Scenario1(b *testing.B) { benchmarkFigure(b, 1) }
func BenchmarkFigure3Scenario2(b *testing.B) { benchmarkFigure(b, 2) }
func BenchmarkFigure4Scenario3(b *testing.B) { benchmarkFigure(b, 3) }

// --- Tables 2-5: one full set per iteration ------------------------------

func benchmarkSet(b *testing.B, key string, policy sim.ServerPolicy, mode experiments.Mode) {
	model := experiments.DefaultExecModel()
	var last metrics.SetSummary
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSet(key, policy, mode, model)
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.ReportMetric(last.AART, "AART-tu")
	b.ReportMetric(last.AIR, "AIR")
	b.ReportMetric(last.ASR, "ASR")
}

func BenchmarkTable2PSSimulation(b *testing.B) {
	benchmarkSet(b, "(2, 0)", sim.PollingServer, experiments.Simulation)
}

func BenchmarkTable3PSExecution(b *testing.B) {
	benchmarkSet(b, "(2, 2)", sim.LimitedPollingServer, experiments.Execution)
}

func BenchmarkTable4DSSimulation(b *testing.B) {
	benchmarkSet(b, "(2, 0)", sim.DeferrableServer, experiments.Simulation)
}

func BenchmarkTable5DSExecution(b *testing.B) {
	benchmarkSet(b, "(2, 2)", sim.LimitedDeferrableServer, experiments.Execution)
}

// BenchmarkTablesAllSets runs every cell of every table once per iteration
// (the full evaluation of the paper). Tables run back to back; each table
// internally fans its cells across the harness worker pool.
func BenchmarkTablesAllSets(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range experiments.TableIDs {
			if _, err := experiments.RunTable(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHarnessParallelTables runs the full evaluation with all four
// tables fanned across the harness worker pool too, at several pool sizes
// (workers=0 is the GOMAXPROCS default). The sub-benchmark ratios show the
// parallel scaling of the experiment harness.
func BenchmarkHarnessParallelTables(b *testing.B) {
	for _, workers := range []int{0, 1, 2, 4} {
		name := fmt.Sprintf("workers%d", workers)
		if workers == 0 {
			name = "workersDefault"
		}
		b.Run(name, func(b *testing.B) {
			harness.SetWorkers(workers)
			defer harness.SetWorkers(0)
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTables(experiments.TableIDs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: FIFO pending list vs Section 7 admission queue ------------

func benchmarkPSServer(b *testing.B, admission bool) {
	p := experiments.GenParams("(3, 2)")
	systems := gen.Generate(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := systems[i%len(systems)]
		vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
		srv := core.NewPollingTaskServer(vm, "PS", 100,
			core.NewTaskServerParameters(0, rtime.TUs(4), rtime.TUs(6)))
		if admission {
			srv.UseAdmissionQueue()
		}
		for k := range base.Aperiodics {
			a := base.Aperiodics[k]
			h := core.NewServableAsyncEventHandler(srv, a.Name, a.Cost)
			e := core.NewServableAsyncEvent(vm, a.Name)
			e.AddServableHandler(h)
			vm.NewOneShotTimer(a.Release, e, a.Name).Start()
		}
		if err := vm.Run(p.Horizon()); err != nil {
			b.Fatal(err)
		}
		vm.Shutdown()
	}
}

func BenchmarkAblationPSFIFOQueue(b *testing.B)      { benchmarkPSServer(b, false) }
func BenchmarkAblationPSAdmissionQueue(b *testing.B) { benchmarkPSServer(b, true) }

// The raw data-structure trade: registration cost of the list-of-lists
// versus the flat FIFO, for growing backlogs.
func BenchmarkAblationAdmissionRegister(b *testing.B) {
	for _, backlog := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("backlog%d", backlog), func(b *testing.B) {
			q := core.NewAdmissionQueue(rtime.TUs(4), rtime.TUs(6))
			srv := struct{}{} // queue is standalone; no server needed
			_ = srv
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if q.Len() >= backlog {
					q = core.NewAdmissionQueue(rtime.TUs(4), rtime.TUs(6))
				}
				q.RegisterCost(rtime.Time(i), rtime.TUs(1.5))
			}
		})
	}
}

// --- Ablation: overhead sensitivity (AIR/ASR vs timer-fire cost) ---------

func BenchmarkAblationOverheadSweep(b *testing.B) {
	for _, fireTU := range []float64{0, 0.05, 0.15, 0.4} {
		b.Run(fmt.Sprintf("timerfire%.2ftu", fireTU), func(b *testing.B) {
			model := experiments.DefaultExecModel()
			model.Overheads.TimerFire = rtime.TUs(fireTU)
			var last metrics.SetSummary
			for i := 0; i < b.N; i++ {
				s, err := experiments.RunSet("(2, 2)", sim.LimitedPollingServer,
					experiments.Execution, model)
				if err != nil {
					b.Fatal(err)
				}
				last = s
			}
			b.ReportMetric(last.AIR, "AIR")
			b.ReportMetric(last.ASR, "ASR")
		})
	}
}

// --- Ablation: ideal (resumable) vs limited (non-resumable) policies -----

func BenchmarkAblationLimitedVsIdeal(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		policy sim.ServerPolicy
	}{
		{"idealPS", sim.PollingServer},
		{"limitedPS", sim.LimitedPollingServer},
		{"idealDS", sim.DeferrableServer},
		{"limitedDS", sim.LimitedDeferrableServer},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var last metrics.SetSummary
			for i := 0; i < b.N; i++ {
				s, err := experiments.RunSet("(2, 2)", cfg.policy,
					experiments.Simulation, experiments.DefaultExecModel())
				if err != nil {
					b.Fatal(err)
				}
				last = s
			}
			b.ReportMetric(last.AART, "AART-tu")
			b.ReportMetric(last.ASR, "ASR")
		})
	}
}

// --- Engine throughput ----------------------------------------------------

// BenchmarkEngineSimThroughput measures the discrete-event simulator on a
// dense workload (jobs per second of wall time). It runs on one reused
// sim.Runner, as campaign and table workers do: the Runner keeps its job
// records from one run to the next, so the heap stays flat and allocs/op
// does not drift with b.N.
func BenchmarkEngineSimThroughput(b *testing.B) {
	p := gen.Params{
		TaskDensity: 3, AverageCost: 3, StdDeviation: 2,
		ServerCapacity: 4, ServerPeriod: 6,
		NbGeneration: 1, Seed: 7, HorizonPeriods: 1000,
	}
	base := gen.Generate(p)[0]
	sys := gen.WithServer(base, p, sim.DeferrableServer, 100)
	jobs := len(sys.Aperiodics)
	var r sim.Runner
	if _, err := r.Run(sys, p.Horizon()); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(sys, p.Horizon()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkCampaignStreaming measures the campaign fabric end to end: one
// 2000-system sweep point generated index-addressably, simulated and folded
// through the streaming reducer (systems per second of wall time). Memory
// per op must stay O(worker pool) — the reducer retains nothing.
//
// Each reducer goroutine warms a state of its own, so allocs/op grows with
// the pool size (about 20 allocations per worker). The pool is fixed at
// two workers so that the exact allocs/op gate reads the same count on
// every machine with two or more CPUs.
func BenchmarkCampaignStreaming(b *testing.B) {
	harness.SetWorkers(2)
	defer harness.SetWorkers(0)
	spec := experiments.DefaultCampaignSpec()
	spec.Points = []float64{2}
	spec.Systems = 2000
	b.ReportAllocs()
	b.ResetTimer()
	var part metrics.Partial
	for i := 0; i < b.N; i++ {
		p, err := experiments.RunCampaignRange(spec, 0, 0, spec.Systems)
		if err != nil {
			b.Fatal(err)
		}
		part = p
	}
	if part.Systems != spec.Systems {
		b.Fatalf("partial covers %d systems, want %d", part.Systems, spec.Systems)
	}
	b.ReportMetric(float64(spec.Systems*b.N)/b.Elapsed().Seconds(), "systems/s")
}

// BenchmarkCampaignShardSession measures the server side of the shard
// wire: one ServeShard session, fed over in-memory pipes, serves the 64
// requests of one run of rtbench's sharded workload per op (the stock
// sweep at 160 systems per point over two shards), recorded from what
// RunCampaignSharded sends: shard 0's requests, then shard 1's. The
// session is warmed before timing and lives across ops, as a connection
// does. The requests are recorded once up front and the responses read
// as raw lines, so allocs/op counts the session alone. The pool is fixed
// at one worker: a helper goroutine's start-up allocations depend on the
// scheduler, and the exact allocs/op gate needs one count.
func BenchmarkCampaignShardSession(b *testing.B) {
	harness.SetWorkers(1)
	defer harness.SetWorkers(0)
	spec := experiments.DefaultCampaignSpec()
	spec.Systems = 160
	var sent [2]bytes.Buffer
	shards := make([]experiments.ShardConn, len(sent))
	for i := range shards {
		reqR, reqW := io.Pipe()
		respR, respW := io.Pipe()
		go func() { respW.CloseWithError(experiments.ServeShard(reqR, respW)) }()
		defer reqW.Close()
		shards[i] = experiments.ShardConn{R: respR, W: io.MultiWriter(&sent[i], reqW)}
	}
	if _, err := experiments.RunCampaignSharded(spec, shards, 0); err != nil {
		b.Fatal(err)
	}
	var lines [][]byte
	for _, buf := range sent {
		for line := range bytes.Lines(buf.Bytes()) {
			lines = append(lines, line)
		}
	}
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		err := experiments.ServeShard(reqR, respW)
		respW.CloseWithError(err)
		served <- err
	}()
	resp := bufio.NewReader(respR)
	var last []byte
	pass := func() {
		for _, line := range lines {
			if _, err := reqW.Write(line); err != nil {
				b.Fatal(err)
			}
			out, err := resp.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			last = out
		}
	}
	pass() // warm the session's worker before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	var r experiments.ShardResponse
	if err := json.Unmarshal(last, &r); err != nil || r.Partial == nil || r.Partial.Systems != 20 {
		b.Fatalf("last response %q (%v)", last, err)
	}
	reqW.Close()
	if err := <-served; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(spec.Systems*len(spec.Points)*b.N)/b.Elapsed().Seconds(), "systems/s")
}

// BenchmarkEngineExecThroughput measures the virtual-time executive running
// the framework (events per second of wall time, including goroutine
// handoffs).
func BenchmarkEngineExecThroughput(b *testing.B) {
	p := gen.Params{
		TaskDensity: 3, AverageCost: 3, StdDeviation: 2,
		ServerCapacity: 4, ServerPeriod: 6,
		NbGeneration: 1, Seed: 7, HorizonPeriods: 100,
	}
	base := gen.Generate(p)[0]
	sys := gen.WithServer(base, p, sim.LimitedDeferrableServer, 100)
	events := len(sys.Aperiodics)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExecution(sys, experiments.ZeroExecModel(), p.Horizon()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkExecRunExecutionMetrics times one table execution system —
// Table 5's deferrable server on system 0 of set (2, 2), under the default
// execution model — on a fresh VM (experiments.RunExecutionMetrics, which
// builds a VM and shuts it down per run) and on one VM reset between runs,
// as each worker of the table fan-out runs its systems. Both report
// -benchmem figures; the reset run must give the fresh run's records.
func BenchmarkExecRunExecutionMetrics(b *testing.B) {
	p := experiments.GenParams("(2, 2)")
	sys := gen.WithServer(gen.Generate(p)[0], p, sim.LimitedDeferrableServer, 100)
	model := experiments.DefaultExecModel()
	want, err := experiments.RunExecutionMetrics(sys, model, p.Horizon())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunExecutionMetrics(sys, model, p.Horizon()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reset", func(b *testing.B) {
		b.ReportAllocs()
		vm := rtsjvm.NewVM(nil, model.Overheads, exec.Options{})
		defer vm.Shutdown()
		var srv core.TaskServer
		for i := 0; i < b.N; i++ {
			vm.Reset(nil, model.Overheads, exec.Options{})
			srv = executeDS(b, vm, sys, model, p.Horizon())
		}
		got := srv.Records()
		if len(got) != len(want.Records) {
			b.Fatalf("%d records on the reset VM, %d on a fresh one", len(got), len(want.Records))
		}
		for i := range got {
			if *got[i] != *want.Records[i] {
				b.Fatalf("record %d: %+v on the reset VM, %+v on a fresh one", i, *got[i], *want.Records[i])
			}
		}
	})
}

// executeDS realizes sys on vm as the experiments bridge does for a
// deferrable server — the framework server, then one servable event,
// handler and one-shot timer per aperiodic, with the model's cost noise —
// and runs it to the horizon.
func executeDS(b *testing.B, vm *rtsjvm.VM, sys sim.System, m experiments.ExecModel, horizon rtime.Time) core.TaskServer {
	spec := sys.Server
	srv := core.NewDeferrableTaskServer(vm, "DS", spec.Priority,
		core.NewTaskServerParameters(0, spec.Capacity, spec.Period))
	for i, a := range sys.Aperiodics {
		actual := rtime.Duration(float64(a.Cost) * (1 + gen.Noise(m.NoiseSeed, m.SysIndex, i)*m.CostNoise))
		h := core.NewServableAsyncEventHandler(srv, a.Name, a.DeclaredCost()).SetActualCost(actual)
		e := core.NewServableAsyncEvent(vm, a.Name)
		e.AddServableHandler(h)
		vm.NewOneShotTimer(a.Release, e, a.Name).Start()
	}
	if err := vm.Run(horizon); err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkExecThroughput measures the virtual-time executive alone —
// no sim engine, no RTSJ emulation — on a mixed workload: eight periodic
// consume/sleep threads at staggered priorities (mostly batched inline by
// the direct kernel) plus a notify ping-pong pair that forces a real
// coroutine switch per event. The events/s metric isolates the
// kernel-loop win from the engine numbers.
func BenchmarkExecThroughput(b *testing.B) {
	b.ReportAllocs()
	ex := exec.NewWithOptions(trace.New(), exec.Options{})
	events := 0
	for i := 0; i < 8; i++ {
		period := rtime.TUs(float64(4 + i))
		cost := rtime.TUs(0.25 + 0.05*float64(i))
		ex.Spawn(fmt.Sprintf("p%d", i), 2+i%4, 0, func(tc *exec.TC) {
			next := rtime.Time(0)
			for {
				tc.Consume(cost)
				events++
				next = next.Add(period)
				tc.SleepUntil(next)
			}
		})
	}
	// The pair runs at the lowest priority, soaking up idle time: pong is
	// spawned first so it parks on its queue before ping's first notify.
	ping, pong := exec.NewWaitQueue("ping"), exec.NewWaitQueue("pong")
	ex.Spawn("pong", 1, 0, func(tc *exec.TC) {
		for {
			tc.Wait(pong)
			tc.Consume(rtime.TUs(0.5))
			events++
			tc.NotifyAll(ping)
		}
	})
	ex.Spawn("ping", 1, 0, func(tc *exec.TC) {
		for {
			tc.Consume(rtime.TUs(0.5))
			events++
			tc.NotifyAll(pong)
			tc.Wait(ping)
		}
	})
	b.ResetTimer()
	if err := ex.Run(rtime.Time(rtime.TUs(1)) * rtime.Time(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	ex.Shutdown()
	if events == 0 {
		b.Fatal("no events scheduled")
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkExecLargeN runs the large-N stress scenario — 10k one-shot
// sporadic job threads plus periodic background load — on the worker
// pool: each job's body starts on a free resident coroutine worker,
// so the whole flood runs on a handful of workers (the preemption depth,
// not the thread count), and threads are carved out of chunks rather than
// allocated one by one.
func BenchmarkExecLargeN(b *testing.B) {
	p := experiments.DefaultStressParams()
	b.ReportAllocs()
	var res *experiments.StressResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunStress(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != p.Jobs {
			b.Fatalf("completed %d of %d jobs", res.Completed, p.Jobs)
		}
	}
	b.ReportMetric(float64(p.Jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(res.PeakWorkers), "peak-workers")
}

// BenchmarkExecObsOverhead measures the observability layer's cost on the
// large-N stress scenario. The disabled sub-benchmark runs with no stats
// registry — the nil fast path every default configuration takes, which
// must stay within noise of BenchmarkExecLargeN — and the enabled one runs
// with a full exec.Stats registry attached, bounding the worst-case cost
// of turning the counters on.
func BenchmarkExecObsOverhead(b *testing.B) {
	run := func(b *testing.B, stats *exec.Stats) {
		p := experiments.DefaultStressParams()
		p.Stats = stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := experiments.RunStress(p)
			if err != nil {
				b.Fatal(err)
			}
			if res.Completed != p.Jobs {
				b.Fatalf("completed %d of %d jobs", res.Completed, p.Jobs)
			}
		}
		b.ReportMetric(float64(p.Jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, exec.NewStats(obs.NewRegistry())) })
}

// BenchmarkExecPeriodicSteadyState runs the 10k-periodic-entity
// steady-state scenario on the activation-driven executive
// (exec.SpawnPeriodic over the worker pool): every entity releases several
// times over the horizon, and no entity owns a goroutine between releases,
// so the whole system runs on a pool-sized worker set. This is the
// workload where looping periodic bodies would degrade the worker pool
// back to one pinned worker per entity.
func BenchmarkExecPeriodicSteadyState(b *testing.B) {
	p := experiments.DefaultSteadyStateParams()
	b.ReportAllocs()
	var res *experiments.SteadyStateResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunPeriodicSteadyState(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Activations < p.Entities {
			b.Fatalf("only %d activations for %d entities", res.Activations, p.Entities)
		}
	}
	b.ReportMetric(float64(res.Activations*b.N)/b.Elapsed().Seconds(), "activations/s")
	b.ReportMetric(float64(res.PeakWorkers), "peak-workers")
}

// BenchmarkExecSMPThroughput runs the large-N sporadic stress scenario on
// four virtual CPUs: the kernel feeds them from its one ready heap and
// places up to four occupants per decision, so this measures the whole
// multiprocessor decision loop (top-M pick, placement, lockstep slice
// advance) at scale.
func BenchmarkExecSMPThroughput(b *testing.B) {
	p := experiments.DefaultStressParams()
	p.CPUs = 4
	b.ReportAllocs()
	var res *experiments.StressResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunStress(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != p.Jobs {
			b.Fatalf("completed %d of %d jobs", res.Completed, p.Jobs)
		}
	}
	b.ReportMetric(float64(p.Jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(res.Migrations), "migrations")
}

// BenchmarkExecSMPUniprocessor runs the same stress scenario with an
// explicit CPUs=1: the M=1 reduction must ride the pre-SMP decision fast
// path, so this number is the regression guard against BenchmarkExecLargeN
// (the legacy uniprocessor configuration) — the two should be within
// noise of each other.
func BenchmarkExecSMPUniprocessor(b *testing.B) {
	p := experiments.DefaultStressParams()
	p.CPUs = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunStress(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != p.Jobs {
			b.Fatalf("completed %d of %d jobs", res.Completed, p.Jobs)
		}
	}
	b.ReportMetric(float64(p.Jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkExecContextSwitch measures one batched same-thread step: a
// single spinner consumes one unit per op, so the direct kernel's
// scheduling loop picks the running thread again and returns inline, with
// no coroutine yield and no resume. Despite the name it never switches
// threads; it is the floor under a scheduling decision.
// BenchmarkExecHandoff measures a real context switch.
func BenchmarkExecContextSwitch(b *testing.B) {
	b.ReportAllocs()
	ex := exec.NewWithOptions(trace.New(), exec.Options{})
	steps := 0
	ex.Spawn("spinner", 1, 0, func(tc *exec.TC) {
		for {
			tc.Consume(rtime.TUs(1))
			steps++
		}
	})
	b.ResetTimer()
	if err := ex.Run(rtime.Time(rtime.TUs(1)) * rtime.Time(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	ex.Shutdown()
	if steps == 0 {
		b.Fatal("spinner never ran")
	}
}

// BenchmarkExecHandoff measures one real context switch: two
// equal-priority threads take turns, each consuming one unit and then
// sleeping until its next turn two units later. Every op is one step
// that ends in a SleepUntil, so the sleeping thread's worker yields to the
// Run trampoline and the trampoline resumes the other thread's worker —
// one coroutine yield plus one resume per op, plus one sleep timer armed
// and fired.
func BenchmarkExecHandoff(b *testing.B) {
	b.ReportAllocs()
	ex := exec.NewWithOptions(nil, exec.Options{})
	steps := 0
	for i := 0; i < 2; i++ {
		next := rtime.Time(rtime.TUs(float64(i)))
		ex.Spawn(fmt.Sprintf("t%d", i), 1, next, func(tc *exec.TC) {
			for {
				tc.Consume(rtime.TUs(1))
				steps++
				next = next.Add(rtime.TUs(2))
				tc.SleepUntil(next)
			}
		})
	}
	b.ResetTimer()
	if err := ex.Run(rtime.Time(rtime.TUs(1)) * rtime.Time(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	ex.Shutdown()
	if steps < b.N {
		b.Fatalf("%d steps for %d ops", steps, b.N)
	}
}

// --- Analysis micro-benchmarks --------------------------------------------

func BenchmarkAnalysisRTA(b *testing.B) {
	tasks := analysis.WithDeferrableServer([]analysis.Task{
		{Name: "t1", C: rtime.TUs(1), T: rtime.TUs(8), Prio: 4},
		{Name: "t2", C: rtime.TUs(1), T: rtime.TUs(10), Prio: 3},
		{Name: "t3", C: rtime.TUs(1), T: rtime.TUs(12), Prio: 2},
		{Name: "t4", C: rtime.TUs(2), T: rtime.TUs(20), Prio: 1},
	}, rtime.TUs(1), rtime.TUs(5), 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !analysis.Feasible(tasks) {
			b.Fatal("set should be feasible")
		}
	}
}

func BenchmarkAnalysisOnlinePSResponse(b *testing.B) {
	st := analysis.PSServerState{
		Cs: rtime.TUs(4), Ts: rtime.TUs(6), Rem: rtime.TUs(2), Now: rtime.AtTU(20),
	}
	for i := 0; i < b.N; i++ {
		if analysis.OnlinePSResponse(st, rtime.TUs(9), rtime.AtTU(19)) <= 0 {
			b.Fatal("bad response")
		}
	}
}

func BenchmarkGenerator(b *testing.B) {
	p := experiments.GenParams("(3, 2)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(gen.Generate(p)) != 10 {
			b.Fatal("bad generation")
		}
	}
}
