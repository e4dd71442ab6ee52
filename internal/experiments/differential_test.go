package experiments

import (
	"math/rand"
	"testing"

	"rtsj/internal/gen"
	"rtsj/internal/rtime"
	"rtsj/internal/sim"
	"rtsj/internal/trace"
)

// The central differential test: with a cost-free execution model, the Task
// Server Framework running on the virtual-time executive must reproduce the
// discrete-event simulation of the *limited* server policies exactly —
// same server busy intervals, same per-event outcomes, same response times.
// The two implementations share no code beyond the time and trace types.
func TestExecutionMatchesLimitedSimulation(t *testing.T) {
	for _, policy := range []sim.ServerPolicy{sim.LimitedPollingServer, sim.LimitedDeferrableServer} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 40; trial++ {
				matchLimited(t, trial, randomServedSystem(rng, policy), rtime.AtTU(60))
			}
		})
	}
	for _, r := range limitedRegressions {
		r := r
		t.Run(r.name, func(t *testing.T) { matchLimited(t, 0, r.sys, r.horizon) })
	}
}

// limitedRegressions are systems on which the simulator and the executive
// once disagreed, each named for the case it covers.
var limitedRegressions = []struct {
	name    string
	sys     sim.System
	horizon rtime.Time
}{
	// A PS-lim burst that ends exactly on a period boundary: J1 is served
	// over [48, 54), and the framework's server thread then waits for its
	// next period at 54, the instant of that release. waitForNextPeriod
	// skips only releases already past, so it returns at once and J2 is
	// served at 54, not at 60.
	{"ps-lim-capacity-equals-period", sim.System{
		Aperiodics: []sim.AperiodicJob{
			{Name: "J1", Release: rtime.AtTU(47), Cost: rtime.TUs(6)},
			{Name: "J2", Release: rtime.AtTU(50), Cost: rtime.TUs(2)},
		},
		Server: &sim.ServerSpec{Policy: sim.LimitedPollingServer,
			Capacity: rtime.TUs(6), Period: rtime.TUs(6), Priority: 100},
	}, rtime.AtTU(72)},
}

// matchLimited runs sys on both sides up to horizon and requires equal
// server segments and per-event outcomes, under a cost-free execution
// model.
func matchLimited(t *testing.T, trial int, sys sim.System, horizon rtime.Time) {
	t.Helper()
	simRes, err := RunSimulation(sys, horizon)
	if err != nil {
		t.Fatal(err)
	}
	execRes, err := RunExecution(sys, ZeroExecModel(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	compareServerSegments(t, trial, sys, simRes.Trace, execRes)
	compareOutcomes(t, trial, sys, simRes, execRes)
	if t.Failed() {
		t.Logf("system: %+v", sys.Aperiodics)
		t.Logf("sim:\n%s", simRes.Trace.Gantt(trace.GanttOptions{}))
		t.Logf("exec:\n%s", execRes.Trace.Gantt(trace.GanttOptions{}))
		t.FailNow()
	}
}

func randomServedSystem(rng *rand.Rand, policy sim.ServerPolicy) sim.System {
	var sys sim.System
	// Optional periodic background (distinct priorities below the server).
	if rng.Intn(2) == 1 {
		sys.Periodics = append(sys.Periodics, sim.PeriodicTask{
			Name: "tau1", Period: rtime.TUs(6), Cost: rtime.TUs(1 + rng.Float64()), Priority: 2,
		})
	}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		cost := 0.5 + rng.Float64()*4.5 // may exceed the capacity
		sys.Aperiodics = append(sys.Aperiodics, sim.AperiodicJob{
			Name:    "J" + string(rune('1'+i)),
			Release: rtime.AtTU(rng.Float64() * 50),
			Cost:    rtime.TUs(cost),
		})
	}
	sys.Server = &sim.ServerSpec{
		Policy:   policy,
		Capacity: rtime.TUs(2 + rng.Float64()*2),
		Period:   rtime.TUs(5 + rng.Float64()*3),
		Priority: 100,
	}
	return sys
}

func compareServerSegments(t *testing.T, trial int, sys sim.System, simTr *trace.Trace, execRes *ExecOutcome) {
	t.Helper()
	name := sys.Server.Policy.String()
	if sys.Server.Name != "" {
		name = sys.Server.Name
	}
	a := simTr.SegmentsOf(name)
	b := execRes.Trace.SegmentsOf(execRes.Server.SchedulableName())
	if len(a) != len(b) {
		t.Errorf("trial %d: server segments differ: sim %d vs exec %d", trial, len(a), len(b))
		return
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Label != b[i].Label {
			t.Errorf("trial %d: segment %d: sim [%v,%v)%q vs exec [%v,%v)%q", trial, i,
				a[i].Start.TUs(), a[i].End.TUs(), a[i].Label,
				b[i].Start.TUs(), b[i].End.TUs(), b[i].Label)
		}
	}
}

func compareOutcomes(t *testing.T, trial int, sys sim.System, simRes *sim.Result, execRes *ExecOutcome) {
	t.Helper()
	simJobs := simRes.Aperiodics()
	if len(simJobs) != len(execRes.Records) {
		t.Errorf("trial %d: event counts differ: %d vs %d", trial, len(simJobs), len(execRes.Records))
		return
	}
	byName := map[string]*sim.Job{}
	for _, j := range simJobs {
		byName[j.Name()] = j
	}
	for _, rec := range execRes.Records {
		j, ok := byName[rec.Handler]
		if !ok {
			t.Errorf("trial %d: exec record %s has no sim job", trial, rec.Handler)
			continue
		}
		if j.Finished != rec.Served || j.Aborted != rec.Interrupted {
			t.Errorf("trial %d: %s: sim served=%v aborted=%v vs exec served=%v interrupted=%v",
				trial, rec.Handler, j.Finished, j.Aborted, rec.Served, rec.Interrupted)
			continue
		}
		if j.Finished && j.Finish != rec.Finished {
			t.Errorf("trial %d: %s: finish sim %v vs exec %v",
				trial, rec.Handler, j.Finish.TUs(), rec.Finished.TUs())
		}
	}
}

// Periodic-only workloads must produce byte-identical schedules on both
// engines: the discrete-event simulator and the executive implement fixed-
// priority preemptive scheduling independently.
//
// The property holds for schedules without deadline misses. Under overload
// the two models legitimately diverge: the simulator queues every periodic
// release (job semantics) while a RealtimeThread's waitForNextPeriod skips
// activations it overran (RTSJ semantics) — so overloaded trials are
// discarded.
func TestPeriodicScheduleMatchesAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		var sys sim.System
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			period := 3 + rng.Intn(12)
			sys.Periodics = append(sys.Periodics, sim.PeriodicTask{
				Name:     "p" + string(rune('1'+i)),
				Period:   rtime.TUs(float64(period)),
				Cost:     rtime.TUs(0.5 + rng.Float64()*float64(period)/3),
				Offset:   rtime.AtTU(rng.Float64() * 5),
				Priority: 1 + rng.Intn(5),
			})
		}
		// A server must exist for RunExecution; give it nothing to serve.
		sys.Server = &sim.ServerSpec{Policy: sim.LimitedPollingServer,
			Capacity: rtime.TUs(1), Period: rtime.TUs(50), Priority: 100}
		horizon := rtime.AtTU(40)

		simRes, err := RunSimulation(sys, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if simRes.PeriodicMisses > 0 {
			continue
		}
		checked++
		execRes, err := RunExecution(sys, ZeroExecModel(), horizon)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range sys.Periodics {
			a := simRes.Trace.SegmentsOf(p.Name)
			b := execRes.Trace.SegmentsOf(p.Name)
			if len(a) != len(b) {
				t.Fatalf("trial %d %s: %d vs %d segments\nsim:\n%s\nexec:\n%s",
					trial, p.Name, len(a), len(b),
					simRes.Trace.Gantt(trace.GanttOptions{}),
					execRes.Trace.Gantt(trace.GanttOptions{}))
			}
			for i := range a {
				if a[i].Start != b[i].Start || a[i].End != b[i].End {
					t.Fatalf("trial %d %s segment %d: sim [%v,%v) vs exec [%v,%v)",
						trial, p.Name, i, a[i].Start.TUs(), a[i].End.TUs(),
						b[i].Start.TUs(), b[i].End.TUs())
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d feasible trials checked; loosen the generator", checked)
	}
}

// The generated sets themselves must be platform-deterministic.
func TestGenerationDeterminism(t *testing.T) {
	p := GenParams("(2, 2)")
	a := gen.Generate(p)
	b := gen.Generate(p)
	if len(a) != len(b) {
		t.Fatal("set sizes differ")
	}
	for i := range a {
		if len(a[i].Aperiodics) != len(b[i].Aperiodics) {
			t.Fatalf("system %d sizes differ", i)
		}
		for k := range a[i].Aperiodics {
			if a[i].Aperiodics[k] != b[i].Aperiodics[k] {
				t.Fatalf("system %d job %d differs", i, k)
			}
		}
	}
}

func TestGenerationRespectsParameters(t *testing.T) {
	p := GenParams("(3, 2)")
	systems := gen.Generate(p)
	if len(systems) != 10 {
		t.Fatalf("nbGeneration: got %d systems", len(systems))
	}
	total := 0
	for _, s := range systems {
		total += len(s.Aperiodics)
		for _, j := range s.Aperiodics {
			if j.Cost < rtime.TUs(gen.MinCost) {
				t.Errorf("cost %v below the 0.1tu clamp", j.Cost)
			}
			if j.Release < 0 || j.Release >= p.Horizon() {
				t.Errorf("release %v outside horizon", j.Release)
			}
		}
		for i := 1; i < len(s.Aperiodics); i++ {
			if s.Aperiodics[i].Release < s.Aperiodics[i-1].Release {
				t.Error("arrivals not sorted")
			}
		}
	}
	// Expected about density*periods*systems = 3*10*10 = 300 events.
	if total < 200 || total > 400 {
		t.Errorf("total events = %d, want around 300", total)
	}
}

func TestGenerationSeedSensitivity(t *testing.T) {
	p := GenParams("(1, 0)")
	a := gen.Generate(p)
	p.Seed = 1984
	b := gen.Generate(p)
	same := len(a) == len(b)
	if same {
		diff := false
		for i := range a {
			if len(a[i].Aperiodics) != len(b[i].Aperiodics) {
				diff = true
				break
			}
			for k := range a[i].Aperiodics {
				if a[i].Aperiodics[k] != b[i].Aperiodics[k] {
					diff = true
					break
				}
			}
		}
		if !diff {
			t.Error("different seeds produced identical sets")
		}
	}
}
