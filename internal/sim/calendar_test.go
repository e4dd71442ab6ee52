package sim

import (
	"math/rand"
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

func TestHeapCalendarOrdering(t *testing.T) {
	h := &heapCalendar{}
	if h.next() != rtime.Never {
		t.Fatal("empty calendar should report Never")
	}
	if _, ok := h.popDue(rtime.AtTU(100)); ok {
		t.Fatal("empty calendar popped a release")
	}
	// Same instant: periodic tasks in index order, then the aperiodic cursor.
	h.push(release{at: rtime.AtTU(5), ap: true, idx: 0})
	h.push(release{at: rtime.AtTU(5), idx: 1})
	h.push(release{at: rtime.AtTU(3), idx: 2})
	h.push(release{at: rtime.AtTU(5), idx: 0})
	if got := h.next(); got != rtime.AtTU(3) {
		t.Fatalf("next = %v, want 3tu", got)
	}
	want := []release{
		{at: rtime.AtTU(3), idx: 2},
		{at: rtime.AtTU(5), idx: 0},
		{at: rtime.AtTU(5), idx: 1},
		{at: rtime.AtTU(5), ap: true, idx: 0},
	}
	for i, w := range want {
		r, ok := h.popDue(rtime.AtTU(5))
		if !ok || r != w {
			t.Fatalf("pop %d = %+v (ok=%v), want %+v", i, r, ok, w)
		}
	}
	if _, ok := h.popDue(rtime.AtTU(5)); ok {
		t.Fatal("drained calendar popped a release")
	}
}

func TestHeapCalendarFutureNotDue(t *testing.T) {
	h := &heapCalendar{}
	h.push(release{at: rtime.AtTU(7), idx: 0})
	if _, ok := h.popDue(rtime.AtTU(6)); ok {
		t.Fatal("future release reported due")
	}
	if r, ok := h.popDue(rtime.AtTU(7)); !ok || r.at != rtime.AtTU(7) {
		t.Fatalf("release at its instant: %+v ok=%v", r, ok)
	}
}

// TestRunNilTraceMatchesRecorded checks that recording does not perturb the
// schedule: a run with a nil trace (the metrics-only path, which skips
// every recording site) and a run recording into a trace give the same
// jobs and misses under every server policy, and only the recorded run
// carries a trace.
func TestRunNilTraceMatchesRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 20*len(allPolicies); i++ {
		sys := randomRunnerSystem(rng, allPolicies[i%len(allPolicies)])
		horizon := rtime.AtTU(float64(20 + rng.Intn(70)))
		plain, err := Run(sys, NewFP(sys, nil), horizon, nil)
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		if plain.Trace != nil {
			t.Fatalf("system %d: a nil-trace run carries a trace", i)
		}
		plainJobs := snapshotJobs(plain)
		tr := trace.New()
		rec, err := Run(sys, NewFP(sys, tr), horizon, tr)
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		if rec.Trace != tr {
			t.Fatalf("system %d: recorded run returned trace %p, want %p", i, rec.Trace, tr)
		}
		recJobs := snapshotJobs(rec)
		if plain.PeriodicMisses != rec.PeriodicMisses || len(plainJobs) != len(recJobs) {
			t.Fatalf("system %d (%v): %d misses, %d jobs without a trace; %d, %d recorded",
				i, policyOf(sys), plain.PeriodicMisses, len(plainJobs), rec.PeriodicMisses, len(recJobs))
		}
		for k := range recJobs {
			if plainJobs[k] != recJobs[k] {
				t.Fatalf("system %d (%v): job %d = %+v without a trace, %+v recorded",
					i, policyOf(sys), k, plainJobs[k], recJobs[k])
			}
		}
	}
}

// diffSystems builds deterministic pseudo-random workloads mixing periodic
// tasks and aperiodic arrivals, via a local LCG (internal/gen would be an
// import cycle here).
func diffSystems(n int, withServer ServerPolicy) []System {
	seed := uint64(12345)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	u := func(lo, hi float64) float64 {
		return lo + (hi-lo)*float64(next()%1000)/1000
	}
	out := make([]System, 0, n)
	for k := 0; k < n; k++ {
		sys := System{
			Periodics: []PeriodicTask{
				{Name: "tau1", Period: rtime.TUs(6), Cost: rtime.TUs(u(0.5, 2)), Priority: 2},
				{Name: "tau2", Period: rtime.TUs(8), Offset: rtime.AtTU(u(0, 3)), Cost: rtime.TUs(u(0.5, 2)), Priority: 1},
			},
		}
		nAp := 10 + int(next()%10)
		for i := 0; i < nAp; i++ {
			sys.Aperiodics = append(sys.Aperiodics, AperiodicJob{
				// Half the jobs unnamed: exercises lazy J<n> naming too.
				Name:     map[bool]string{true: "", false: "a" + string(rune('A'+i%26))}[i%2 == 0],
				Release:  rtime.AtTU(u(0, 50)),
				Cost:     rtime.TUs(u(0.2, 3)),
				Deadline: rtime.TUs(u(5, 20)),
			})
		}
		if withServer != NoServer || k%2 == 0 {
			sys.Server = &ServerSpec{
				Policy:   withServer,
				Capacity: rtime.TUs(2),
				Period:   rtime.TUs(6),
				Priority: 10,
			}
		}
		out = append(out, sys)
	}
	return out
}

// TestCalendarDifferential runs every workload twice — once with the
// heap-based release calendar, once with the seed's linear-scan calendar —
// and requires bit-identical job outcomes, release order and traces, for
// every dispatcher flavour.
func TestCalendarDifferential(t *testing.T) {
	horizon := rtime.AtTU(60)
	policies := []ServerPolicy{
		NoServer, PollingServer, DeferrableServer,
		LimitedPollingServer, LimitedDeferrableServer,
		SporadicServer, PriorityExchange, SlackStealer,
	}
	type mkDispatcher struct {
		name string
		mk   func(sys System, tr *trace.Trace) Dispatcher
	}
	for _, pol := range policies {
		for trial, sys := range diffSystems(4, pol) {
			dispatchers := []mkDispatcher{
				{"FP+" + pol.String(), func(sys System, tr *trace.Trace) Dispatcher { return NewFP(sys, tr) }},
			}
			if pol == NoServer {
				dispatchers = append(dispatchers,
					mkDispatcher{"EDF", func(sys System, tr *trace.Trace) Dispatcher { return NewEDF() }},
					mkDispatcher{"DOVER", func(sys System, tr *trace.Trace) Dispatcher { return NewDOver(sys, tr) }},
				)
			}
			for _, mk := range dispatchers {
				sys := sys
				if mk.name == "EDF" || mk.name == "DOVER" {
					sys.Server = nil // dynamic-priority dispatchers take no server
				}
				trHeap, trLin := trace.New(), trace.New()
				rHeap, errHeap := runWithCalendar(sys, mk.mk(sys, trHeap), horizon, trHeap, &heapCalendar{})
				rLin, errLin := runWithCalendar(sys, mk.mk(sys, trLin), horizon, trLin,
					newLinearCalendar(len(sys.Periodics)))
				if (errHeap == nil) != (errLin == nil) {
					t.Fatalf("%s trial %d: heap err=%v, linear err=%v", mk.name, trial, errHeap, errLin)
				}
				if errHeap != nil {
					continue
				}
				compareRuns(t, mk.name, trial, rHeap, rLin, trHeap, trLin)
			}
		}
	}
}

func compareRuns(t *testing.T, name string, trial int, a, b *Result, ta, tb *trace.Trace) {
	t.Helper()
	if a.PeriodicMisses != b.PeriodicMisses {
		t.Fatalf("%s trial %d: misses %d vs %d", name, trial, a.PeriodicMisses, b.PeriodicMisses)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("%s trial %d: %d vs %d jobs", name, trial, len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Name() != jb.Name() || ja.Release != jb.Release || ja.Periodic != jb.Periodic {
			t.Fatalf("%s trial %d: release order diverges at %d: %s@%v vs %s@%v",
				name, trial, i, ja.Name(), ja.Release, jb.Name(), jb.Release)
		}
		if ja.Finished != jb.Finished || ja.Finish != jb.Finish ||
			ja.Aborted != jb.Aborted || ja.Remaining != jb.Remaining {
			t.Fatalf("%s trial %d: job %s outcome diverges: %+v vs %+v",
				name, trial, ja.Name(), ja, jb)
		}
	}
	if len(ta.Segments) != len(tb.Segments) {
		t.Fatalf("%s trial %d: %d vs %d segments", name, trial, len(ta.Segments), len(tb.Segments))
	}
	for i := range ta.Segments {
		if ta.Segments[i] != tb.Segments[i] {
			t.Fatalf("%s trial %d: segment %d: %+v vs %+v",
				name, trial, i, ta.Segments[i], tb.Segments[i])
		}
	}
	if len(ta.Events) != len(tb.Events) {
		t.Fatalf("%s trial %d: %d vs %d events", name, trial, len(ta.Events), len(tb.Events))
	}
	for i := range ta.Events {
		if ta.Events[i] != tb.Events[i] {
			t.Fatalf("%s trial %d: event %d: %+v vs %+v",
				name, trial, i, ta.Events[i], tb.Events[i])
		}
	}
}
