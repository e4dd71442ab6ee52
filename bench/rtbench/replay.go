package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rtsj/internal/exec"
	"rtsj/internal/experiments"
	"rtsj/internal/gen"
	"rtsj/internal/harness"
	"rtsj/internal/metrics"
	"rtsj/internal/obs"
	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

// replay is one workload's composition, replayed serially through the
// same public calls the workload's op makes, with a span around each call
// into a layer.
type replay interface {
	// pass replays one op, recording spans under root when tr is not nil,
	// and checks that the replay reproduces the program's own result.
	pass(tr *tracer, root int) error
	// report adds the composition's per-layer metrics.
	report(tr *tracer, w passWalls, m map[string]metric) error
	close() error
}

// passWalls sums the wall time of a composition's untraced and traced
// passes; they alternate, n of each.
type passWalls struct {
	plain, traced time.Duration
	n             int
}

var replays = []struct {
	name  string
	build func(seed int64) (replay, error)
}{
	{"tables", newTablesReplay},
	{"campaign", newCampaignReplay},
	{"sharded", newShardedReplay},
	{"flood", newFloodReplay},
}

// traceRun replays every composition for an equal share of dur, in pairs
// of an untraced and a traced pass, and reports the per-layer metrics. A
// traced run always covers every layer, so its metrics do not depend on
// the workload it was started for. Unless spanFile is "1", the spans are
// written to it.
func traceRun(seed int64, dur time.Duration, spanFile string, stderr io.Writer) childReport {
	tr := newTracer()
	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) {
		fmt.Fprintf(stderr, "rtbench: trace: %v\n", err)
		res.Correct = false
	}
	var plain, traced float64
	op := 0
	for _, b := range replays {
		r, err := b.build(seed)
		if err != nil {
			fail(fmt.Errorf("%s: %w", b.name, err))
			continue
		}
		var w passWalls
		began := time.Now()
		for w.n == 0 || time.Since(began) < dur/time.Duration(len(replays)) {
			t0 := time.Now()
			errPlain := r.pass(nil, -1)
			w.plain += time.Since(t0)

			tr.pass(b.name, op)
			root := tr.begin("replay."+b.name, "bench", -1)
			t0 = time.Now()
			errTraced := r.pass(tr, root.i)
			w.traced += time.Since(t0)
			tr.end(root)

			op++
			w.n++
			res.Attempted += 2
			for _, err := range []error{errPlain, errTraced} {
				if err != nil {
					res.Failed++
					if res.Failed == 1 {
						fail(fmt.Errorf("%s replay: %w", b.name, err))
					}
				}
			}
		}
		if err := r.report(tr, w, res.Metrics); err != nil {
			fail(fmt.Errorf("%s: %w", b.name, err))
		}
		if err := r.close(); err != nil {
			fail(fmt.Errorf("%s: %w", b.name, err))
		}
		plain += w.plain.Seconds() / float64(w.n)
		traced += w.traced.Seconds() / float64(w.n)
	}
	res.Metrics["trace.overhead_frac"] = metric{traced/plain - 1, "ratio"}
	if spanFile != "1" {
		if err := tr.write(spanFile); err != nil {
			fail(err)
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // a run that could not replay anything still attempted
		res.Failed = 1
	}
	return childReport{Samples: op, Result: res}
}

// allocsPer returns the heap allocations per call of f over n calls.
func allocsPer(n int, f func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// sinkSystem keeps generated systems alive so their allocation is counted.
var sinkSystem sim.System

// tableModes copies experiments' unexported map from table number to
// server policy and mode. newTablesReplay checks the copy: RunSet with it
// must give RunTable's cells.
var tableModes = map[string]struct {
	policy sim.ServerPolicy
	mode   experiments.Mode
}{
	"2": {sim.PollingServer, experiments.Simulation},
	"3": {sim.LimitedPollingServer, experiments.Execution},
	"4": {sim.DeferrableServer, experiments.Simulation},
	"5": {sim.LimitedDeferrableServer, experiments.Execution},
}

// serverPriority copies the server priority experiments.RunSet and
// experiments.RunCampaignRange pass to gen.WithServer.
const serverPriority = 100

// pointParams copies experiments' unexported mapping of a campaign sweep
// point onto generation parameters, including the per-point seed offset.
func pointParams(s experiments.CampaignSpec, point int) gen.Params {
	return gen.Params{
		TaskDensity:    s.Points[point],
		AverageCost:    s.AverageCost,
		StdDeviation:   s.StdDeviation,
		ServerCapacity: s.ServerCapacity,
		ServerPeriod:   s.ServerPeriod,
		Seed:           s.Seed + int64(point)*0x1000003,
		HorizonPeriods: s.HorizonPeriods,
	}
}

// tablesReplay replays experiments.RunTables(experiments.TableIDs): per
// table and set, generation, then each system through the simulation or
// the execution bridge, then the set summary.
type tablesReplay struct {
	want                            map[string]experiments.Cell // by table id and set key
	records                         int
	switches, preemptions, timerMax int64
}

func newTablesReplay(int64) (replay, error) {
	r := &tablesReplay{want: map[string]experiments.Cell{}}
	for _, id := range experiments.TableIDs {
		t, err := experiments.RunTable(id)
		if err != nil {
			return nil, err
		}
		m := tableModes[id]
		for _, key := range experiments.SetKeys {
			s, err := experiments.RunSet(key, m.policy, m.mode, experiments.DefaultExecModel())
			if err != nil {
				return nil, err
			}
			c := experiments.Cell{AART: s.AART, AIR: s.AIR, ASR: s.ASR}
			if c != t.Measured[key] {
				return nil, fmt.Errorf("table %s, set %s: RunSet gives %+v, RunTable %+v", id, key, c, t.Measured[key])
			}
			r.want[id+" "+key] = c
		}
	}
	return r, nil
}

func (r *tablesReplay) pass(tr *tracer, root int) error {
	model := experiments.DefaultExecModel()
	if tr != nil {
		model.Stats = exec.NewStats(obs.NewRegistry())
	}
	for _, id := range experiments.TableIDs {
		for _, key := range experiments.SetKeys {
			c, err := r.set(tr, root, id, key, model)
			if err != nil {
				return fmt.Errorf("table %s, set %s: %w", id, key, err)
			}
			if want := r.want[id+" "+key]; c != want {
				return fmt.Errorf("table %s, set %s: replay gives %+v, program %+v", id, key, c, want)
			}
		}
	}
	if st := model.Stats; st != nil {
		r.switches += st.ContextSwitches.Value()
		r.preemptions += st.Preemptions.Value()
		r.timerMax = max(r.timerMax, st.TimerHeapMax.Value())
	}
	return nil
}

// set replays experiments.RunSet for one cell.
func (r *tablesReplay) set(tr *tracer, root int, id, key string, model experiments.ExecModel) (experiments.Cell, error) {
	m := tableModes[id]
	p := experiments.GenParams(key)
	g := tr.begin("gen.Generate", "gen", root)
	systems := gen.Generate(p)
	tr.end(g)
	horizon := p.Horizon()
	sums := make([]metrics.Summary, len(systems))
	for i, base := range systems {
		sys := gen.WithServer(base, p, m.policy, serverPriority)
		switch m.mode {
		case experiments.Simulation:
			s := tr.begin("experiments.RunSimulationMetrics", "sim", root)
			res, err := experiments.RunSimulationMetrics(sys, horizon)
			tr.end(s)
			if err != nil {
				return experiments.Cell{}, err
			}
			sums[i] = metrics.Summarize(experiments.SimEvents(res))
			res.Recycle()
		case experiments.Execution:
			mm := model
			mm.SysIndex = i
			s := tr.begin("experiments.RunExecutionMetrics", "bridge", root)
			o, err := experiments.RunExecutionMetrics(sys, mm, horizon)
			tr.end(s)
			if err != nil {
				return experiments.Cell{}, err
			}
			if tr != nil {
				r.records += len(o.Records)
			}
			sums[i] = metrics.Summarize(experiments.ExecEvents(o))
		}
	}
	a := metrics.Aggregate(sums)
	return experiments.Cell{AART: a.AART, AIR: a.AIR, ASR: a.ASR}, nil
}

func (r *tablesReplay) report(tr *tracer, _ passWalls, m map[string]metric) error {
	g := tr.totalFor("tables", "gen.Generate")
	ex := tr.totalFor("tables", "experiments.RunExecutionMetrics")
	sm := tr.totalFor("tables", "experiments.RunSimulationMetrics")
	m["gen.generate_ms"] = metric{g.meanNs() / 1e6, "ms"}
	m["bridge.exec_system_us"] = metric{ex.meanNs() / 1e3, "us"}
	m["bridge.sim_system_us"] = metric{sm.meanNs() / 1e3, "us"}
	m["bridge.exec_share"] = metric{float64(ex.ns) / float64(ex.ns+sm.ns), "ratio"}
	m["exec.switches_per_system"] = metric{float64(r.switches) / float64(ex.calls), "count"}
	m["exec.preemptions_per_system"] = metric{float64(r.preemptions) / float64(ex.calls), "count"}
	m["exec.timer_heap_max"] = metric{float64(r.timerMax), "count"}
	m["core.records_per_system"] = metric{float64(r.records) / float64(ex.calls), "count"}

	type run struct {
		sys     sim.System
		model   experiments.ExecModel
		horizon rtime.Time
	}
	var runs []run
	for _, id := range experiments.TableIDs {
		if tableModes[id].mode != experiments.Execution {
			continue
		}
		for _, key := range experiments.SetKeys {
			p := experiments.GenParams(key)
			for i, base := range gen.Generate(p) {
				model := experiments.DefaultExecModel()
				model.SysIndex = i
				runs = append(runs, run{gen.WithServer(base, p, tableModes[id].policy, serverPriority), model, p.Horizon()})
			}
		}
	}
	var err error
	m["bridge.allocs_per_exec_system"] = metric{allocsPer(len(runs), func(i int) {
		if _, e := experiments.RunExecutionMetrics(runs[i].sys, runs[i].model, runs[i].horizon); e != nil {
			err = e
		}
	}), "allocs"}
	return err
}

func (r *tablesReplay) close() error { return nil }

// campaignReplay replays experiments.RunCampaign: per sweep point and
// system, generation, simulation, the metrics fold and the result recycle,
// as experiments.RunCampaignRange does inside the harness reducer.
type campaignReplay struct {
	spec               experiments.CampaignSpec
	want               []metrics.Partial // RunCampaignRange of each point
	parallel           []float64         // untraced RunCampaign walls, s
	busyMax, windowMax int64
	systems, jobs      int
}

func newCampaignReplay(seed int64) (replay, error) {
	r := &campaignReplay{spec: campaignSpec(seed)}
	for point := range r.spec.Points {
		part, err := experiments.RunCampaignRange(r.spec, point, 0, r.spec.Systems)
		if err != nil {
			return nil, err
		}
		r.want = append(r.want, part)
	}
	// Untraced parallel ops give the wall time parallel efficiency is
	// measured against; the last one runs with the harness stats installed.
	const walls = 3
	hs := harness.NewStats(obs.NewRegistry())
	for i := 0; i <= walls; i++ {
		if i == walls {
			harness.SetStats(hs)
		}
		began := time.Now()
		c, err := experiments.RunCampaign(r.spec)
		wall := time.Since(began)
		harness.SetStats(nil)
		if err != nil {
			return nil, err
		}
		for p, pt := range c.Points {
			if pt.Partial != r.want[p] {
				return nil, fmt.Errorf("point %d: RunCampaign gives %v, RunCampaignRange %v", p, pt.Partial, r.want[p])
			}
		}
		if i < walls {
			r.parallel = append(r.parallel, wall.Seconds())
		}
	}
	r.busyMax, r.windowMax = hs.BusyMax.Value(), hs.WindowMax.Value()
	return r, nil
}

func (r *campaignReplay) pass(tr *tracer, root int) error {
	s := r.spec
	for point := range s.Points {
		p := pointParams(s, point)
		horizon := p.Horizon()
		var part metrics.Partial
		for k := 0; k < s.Systems; k++ {
			g := tr.begin("gen.SystemAt", "gen", root)
			base := gen.SystemAt(p, k)
			tr.end(g)
			sys := gen.WithServer(base, p, s.Policy, serverPriority)
			m := tr.begin("experiments.RunSimulationMetrics", "sim", root)
			res, err := experiments.RunSimulationMetrics(sys, horizon)
			tr.end(m)
			if err != nil {
				return fmt.Errorf("point %d, system %d: %w", point, k, err)
			}
			if tr != nil {
				r.systems++
				r.jobs += len(res.Jobs)
			}
			f := tr.begin("metrics.fold", "metrics", root)
			var one metrics.Partial
			one.AddSystem(experiments.SimEvents(res))
			part.Merge(one)
			tr.end(f)
			c := tr.begin("sim.Result.Recycle", "sim", root)
			res.Recycle()
			tr.end(c)
		}
		if part != r.want[point] {
			return fmt.Errorf("point %d: replay gives %v, RunCampaignRange %v", point, part, r.want[point])
		}
	}
	return nil
}

func (r *campaignReplay) report(tr *tracer, w passWalls, m map[string]metric) error {
	m["gen.system_at_us"] = metric{tr.totalFor("campaign", "gen.SystemAt").meanNs() / 1e3, "us"}
	m["sim.run_us"] = metric{tr.totalFor("campaign", "experiments.RunSimulationMetrics").meanNs() / 1e3, "us"}
	m["sim.recycle_us"] = metric{tr.totalFor("campaign", "sim.Result.Recycle").meanNs() / 1e3, "us"}
	m["metrics.fold_us"] = metric{tr.totalFor("campaign", "metrics.fold").meanNs() / 1e3, "us"}
	m["sim.jobs_per_system"] = metric{float64(r.jobs) / float64(r.systems), "count"}
	serial := w.plain.Seconds() / float64(w.n)
	m["harness.parallel_efficiency"] = metric{serial / (median(r.parallel) * float64(runtime.GOMAXPROCS(0))), "ratio"}
	m["harness.workers_busy_max"] = metric{float64(r.busyMax), "count"}
	m["harness.reorder_window_max"] = metric{float64(r.windowMax), "count"}

	const n = 1000
	p := pointParams(r.spec, 0)
	m["gen.allocs_per_system"] = metric{allocsPer(n, func(i int) { sinkSystem = gen.SystemAt(p, i) }), "allocs"}
	systems := make([]sim.System, n)
	for i := range systems {
		systems[i] = gen.WithServer(gen.SystemAt(p, i), p, r.spec.Policy, serverPriority)
	}
	var err error
	simulate := func(i int) {
		res, e := experiments.RunSimulationMetrics(systems[i], p.Horizon())
		if e != nil {
			err = e
			return
		}
		res.Recycle()
	}
	allocsPer(n, simulate) // fill the engine's recycling pools first
	m["sim.allocs_per_run"] = metric{allocsPer(n, simulate), "allocs"}
	return err
}

func (r *campaignReplay) close() error { return nil }

// shardedReplay replays the sharded op with the harness at one worker, so
// the two shard sessions take turns and each range runs inline. Taps on
// both ends of each connection time every request.
type shardedReplay struct {
	spec  experiments.CampaignSpec
	want  []experiments.CurvePoint // in-process RunCampaign
	links []*wireLink
	fab   *fabric
}

func newShardedReplay(seed int64) (replay, error) {
	r := &shardedReplay{spec: shardedSpec(seed)}
	ref, err := experiments.RunCampaign(r.spec)
	if err != nil {
		return nil, err
	}
	r.want = ref.Points
	for i := 0; i < shardConns; i++ {
		r.links = append(r.links, &wireLink{})
	}
	if r.fab, err = dialShards(shardConns, r.links); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *shardedReplay) pass(tr *tracer, root int) error {
	for _, l := range r.links {
		l.use(tr, root)
	}
	harness.SetWorkers(1)
	c, err := experiments.RunCampaignSharded(r.spec, r.fab.conns, 0)
	harness.SetWorkers(0)
	for _, l := range r.links {
		l.use(nil, -1)
	}
	if err != nil {
		return err
	}
	for i, pt := range c.Points {
		if pt != r.want[i] {
			return fmt.Errorf("point %d: sharded replay gives %v, in-process RunCampaign %v", i, pt.Partial, r.want[i].Partial)
		}
	}
	return nil
}

func (r *shardedReplay) report(_ *tracer, w passWalls, m map[string]metric) error {
	var rtt, serve, over []float64
	var requests int
	var reqBytes, respBytes int64
	for i, l := range r.links {
		l.mu.Lock()
		if len(l.rtt) != len(l.serve) || len(l.rtt) != l.requests {
			l.mu.Unlock()
			return fmt.Errorf("shard %d: %d requests, %d round trips, %d serves", i, l.requests, len(l.rtt), len(l.serve))
		}
		for k := range l.rtt {
			over = append(over, l.rtt[k]-l.serve[k])
		}
		rtt = append(rtt, l.rtt...)
		serve = append(serve, l.serve...)
		requests += l.requests
		reqBytes += l.reqBytes
		respBytes += l.respBytes
		l.mu.Unlock()
	}
	if requests == 0 {
		return fmt.Errorf("no requests recorded")
	}
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	m["wire.requests_per_op"] = metric{float64(requests) / float64(w.n), "count"}
	m["wire.request_bytes"] = metric{float64(reqBytes) / float64(requests), "B"}
	m["wire.response_bytes"] = metric{float64(respBytes) / float64(requests), "B"}
	m["wire.server_ms"] = metric{percentile(serve, 50), "ms"}
	m["wire.overhead_ms"] = metric{percentile(over, 50), "ms"}
	m["wire.overhead_share"] = metric{sum(over) / sum(rtt), "ratio"}
	m["wire.request_p50_ms"] = metric{percentile(rtt, 50), "ms"}
	m["wire.request_p99_ms"] = metric{percentile(rtt, 99), "ms"}
	return nil
}

func (r *shardedReplay) close() error { return r.fab.close() }

// floodReplay replays the flood op, with the executive's kernel counters
// wired into both runs when traced.
type floodReplay struct {
	sp                    experiments.StressParams
	ss                    experiments.SteadyStateParams
	want                  [2]uint64 // untraced stress and steady fingerprints
	jobs, runs            int
	switches, preemptions int64
	spawns, dispatches    int64
	readyMax              int64
}

func newFloodReplay(seed int64) (replay, error) {
	r := &floodReplay{}
	r.sp, r.ss = floodParams(seed)
	st, err := experiments.RunStress(r.sp)
	if err != nil {
		return nil, err
	}
	ss, err := experiments.RunPeriodicSteadyState(r.ss)
	if err != nil {
		return nil, err
	}
	r.want = [2]uint64{st.Fingerprint, ss.Fingerprint}
	return r, nil
}

func (r *floodReplay) pass(tr *tracer, root int) error {
	sp, ss := r.sp, r.ss
	if tr != nil {
		sp.Stats = exec.NewStats(obs.NewRegistry())
		ss.Stats = exec.NewStats(obs.NewRegistry())
	}
	s := tr.begin("experiments.RunStress", "exec", root)
	st, err := experiments.RunStress(sp)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("experiments.RunPeriodicSteadyState", "exec", root)
	q, err := experiments.RunPeriodicSteadyState(ss)
	tr.end(s)
	if err != nil {
		return err
	}
	if got := [2]uint64{st.Fingerprint, q.Fingerprint}; got != r.want {
		return fmt.Errorf("replay fingerprints %#x, program %#x", got, r.want)
	}
	if st.Completed != st.Jobs {
		return fmt.Errorf("stress completed %d of %d jobs", st.Completed, st.Jobs)
	}
	if tr != nil {
		r.runs++
		r.jobs += st.Jobs
		r.switches += sp.Stats.ContextSwitches.Value()
		r.preemptions += sp.Stats.Preemptions.Value()
		r.spawns += sp.Stats.PoolSpawns.Value()
		r.readyMax = max(r.readyMax, sp.Stats.ReadyMax.Value())
		r.dispatches += ss.Stats.Dispatches.Value()
	}
	return nil
}

func (r *floodReplay) report(tr *tracer, _ passWalls, m map[string]metric) error {
	stress := tr.totalFor("flood", "experiments.RunStress")
	m["exec.stress_run_ms"] = metric{stress.meanNs() / 1e6, "ms"}
	m["exec.steady_run_ms"] = metric{tr.totalFor("flood", "experiments.RunPeriodicSteadyState").meanNs() / 1e6, "ms"}
	m["exec.switches_per_job"] = metric{float64(r.switches) / float64(r.jobs), "count"}
	m["exec.preemptions_per_job"] = metric{float64(r.preemptions) / float64(r.jobs), "count"}
	m["exec.switch_ns"] = metric{float64(stress.ns) / float64(r.switches), "ns"}
	m["exec.pool_spawns"] = metric{float64(r.spawns) / float64(r.runs), "count"}
	m["exec.ready_max"] = metric{float64(r.readyMax), "count"}
	m["exec.dispatches_per_run"] = metric{float64(r.dispatches) / float64(r.runs), "count"}
	return nil
}

func (r *floodReplay) close() error { return nil }
