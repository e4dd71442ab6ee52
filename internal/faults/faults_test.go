package faults

import (
	"strings"
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

func TestJobFaultDeterministicAndOrderIndependent(t *testing.T) {
	p := &Plan{Seed: 7, OverrunProb: 0.5, OverrunMax: 1, JitterProb: 0.5, JitterMax: rtime.TUs(2), DropProb: 0.1}
	forward := make([]Fault, 50)
	for i := range forward {
		forward[i] = p.JobFault(3, i)
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := p.JobFault(3, i); got != forward[i] {
			t.Fatalf("job %d: fault depends on call order: %+v vs %+v", i, got, forward[i])
		}
	}
	q := *p
	if got := q.JobFault(3, 10); got != forward[10] {
		t.Fatalf("equal plans disagree: %+v vs %+v", got, forward[10])
	}
	q.Seed = 8
	same := 0
	for i := range forward {
		if q.JobFault(3, i) == forward[i] {
			same++
		}
	}
	if same == len(forward) {
		t.Fatal("changing the seed changed no fault")
	}
}

func TestKindStreamsIndependent(t *testing.T) {
	// Enabling drops must not shift the overrun/jitter schedule of
	// non-dropped jobs.
	base := &Plan{Seed: 1, OverrunProb: 0.4, OverrunMax: 0.5, JitterProb: 0.4, JitterMax: rtime.TUs(1)}
	withDrops := *base
	withDrops.DropProb = 0.2
	for i := 0; i < 100; i++ {
		f := withDrops.JobFault(0, i)
		if f.Dropped {
			continue
		}
		if want := base.JobFault(0, i); f != want {
			t.Fatalf("job %d: drop knob shifted other kinds: %+v vs %+v", i, f, want)
		}
	}
}

func TestFaultBounds(t *testing.T) {
	p := &Plan{Seed: 3, OverrunProb: 1, OverrunMax: 0.5, JitterProb: 1, JitterMax: rtime.TUs(2)}
	for i := 0; i < 200; i++ {
		f := p.JobFault(0, i)
		if f.CostFactor <= 1 || f.CostFactor > 1.5 {
			t.Fatalf("job %d: cost factor %v outside (1, 1.5]", i, f.CostFactor)
		}
		if f.Jitter <= 0 || f.Jitter > rtime.TUs(2) {
			t.Fatalf("job %d: jitter %v outside (0, 2tu]", i, f.Jitter)
		}
	}
}

func TestNilAndDisabledPlans(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Error("nil plan reports enabled")
	}
	if f := nilPlan.JobFault(0, 0); f.Dropped || f.Jitter != 0 || f.CostFactor != 1 {
		t.Errorf("nil plan injects: %+v", f)
	}
	sys := sim.System{Aperiodics: []sim.AperiodicJob{{Name: "J1", Cost: rtime.TU}}}
	if out := nilPlan.ApplySystem(sys, 0); len(out.Aperiodics) != 1 || out.Aperiodics[0] != sys.Aperiodics[0] {
		t.Error("nil plan perturbed the system")
	}
	zero := &Plan{Seed: 42}
	if zero.Enabled() {
		t.Error("zero-knob plan reports enabled")
	}
}

func TestApplySystem(t *testing.T) {
	jobs := make([]sim.AperiodicJob, 40)
	for i := range jobs {
		jobs[i] = sim.AperiodicJob{Name: "J", Release: rtime.AtTU(float64(i)), Cost: rtime.TU}
	}
	p := &Plan{Seed: 11, OverrunProb: 0.5, OverrunMax: 1, JitterProb: 0.5, JitterMax: rtime.TUs(3), DropProb: 0.25}
	out := p.ApplySystem(sim.System{Aperiodics: jobs}, 0)
	if len(out.Aperiodics) >= len(jobs) {
		t.Fatalf("no job dropped: %d of %d remain", len(out.Aperiodics), len(jobs))
	}
	overrun, jittered := 0, 0
	for _, j := range out.Aperiodics {
		if j.Cost > rtime.TU {
			overrun++
			if j.Declared != rtime.TU {
				t.Fatalf("overrun job lost its declared cost: %v", j.Declared)
			}
		}
	}
	// Jitter only delays: find each surviving job's original by name-free
	// release comparison (original releases are the integers).
	for _, j := range out.Aperiodics {
		if j.Release != rtime.Time(rtime.DivFloor(rtime.Duration(j.Release), rtime.TU))*rtime.Time(rtime.TU) {
			jittered++
		}
	}
	if overrun == 0 {
		t.Error("no job overran")
	}
	if jittered == 0 {
		t.Error("no release jittered")
	}
	// The input system is untouched.
	for i, j := range jobs {
		if j.Cost != rtime.TU || j.Declared != 0 || j.Release != rtime.AtTU(float64(i)) {
			t.Fatalf("ApplySystem mutated its input at %d: %+v", i, j)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"seed=7",
		"seed=7 overrun=0.3:0.5",
		"seed=-2 overrun=0.3:0.5 jitter=0.2:1.5tu drop=0.05",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if *q != *p {
			t.Fatalf("%q: round trip %+v != %+v", s, q, p)
		}
	}
	for _, s := range []string{"", "off", "none", "  off  "} {
		p, err := Parse(s)
		if err != nil || p != nil {
			t.Fatalf("%q: want nil plan, got %+v, %v", s, p, err)
		}
	}
	for _, s := range []string{"bogus", "seed", "seed=x", "overrun=0.3", "jitter=0.1:zz", "what=1"} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("%q: want parse error", s)
		}
	}
}

// TestParseRejectsOutOfRangeKnobs pins ParseArgs' range checks: every
// value that would make a fault schedule meaningless, or wrap
// Fault.Apply's cost (overrun=1:Inf used to yield a negative consume), is
// an error, and the boundary values are accepted.
func TestParseRejectsOutOfRangeKnobs(t *testing.T) {
	for _, tc := range []struct {
		plan string
		want string // substring of the error; "" means valid
	}{
		{"drop=NaN", "drop probability NaN"},
		{"drop=-0.1", "drop probability -0.1"},
		{"drop=1.5", "drop probability 1.5"},
		{"overrun=NaN:0.5", "overrun probability NaN"},
		{"overrun=2:0.5", "overrun probability 2"},
		{"jitter=-1:1tu", "jitter probability -1"},
		{"jitter=+Inf:1tu", "jitter probability +Inf"},
		{"overrun=1:Inf", "overrun max +Inf"},
		{"overrun=1:-Inf", "overrun max -Inf"},
		{"overrun=1:NaN", "overrun max NaN"},
		{"overrun=1:1e300", "overrun max 1e+300"},
		{"overrun=1:-0.5", "overrun max -0.5"},
		{"overrun=1:1000.5", "overrun max 1000.5"},
		{"jitter=0.5:-2tu", "negative jitter max"},
		{"seed=1 drop=0 overrun=1:1000 jitter=1:0tu", ""},
		{"drop=1 overrun=0:0", ""},
	} {
		p, err := Parse(tc.plan)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%q: unexpected error %v", tc.plan, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: got plan %+v, error %v; want an error containing %q", tc.plan, p, err, tc.want)
		}
	}
	// At the ceiling, an overrun still yields a positive, finite cost.
	f := Fault{CostFactor: 1 + MaxOverrun}
	if got := f.Apply(rtime.TUs(1e6)); got <= 0 {
		t.Errorf("Apply at MaxOverrun wrapped to %v", got)
	}
}

func TestCheckerConservation(t *testing.T) {
	c := &Checker{}
	c.Conservation(Counts{Released: 10, Served: 5, Interrupted: 2, Rejected: 1, Shed: 1, Pending: 1})
	if err := c.Err(); err != nil {
		t.Fatalf("balanced counts flagged: %v", err)
	}
	c.Conservation(Counts{Released: 10, Served: 5})
	if c.Err() == nil {
		t.Fatal("leaky counts not flagged")
	}
	c2 := &Checker{}
	c2.Conservation(Counts{Released: 1, Served: 2, Pending: -1})
	if c2.Err() == nil {
		t.Fatal("negative bucket not flagged")
	}
}

func TestCheckerMonotone(t *testing.T) {
	c := &Checker{}
	c.Monotone("x", 1)
	c.Monotone("x", 1)
	c.Monotone("x", 3)
	if err := c.Err(); err != nil {
		t.Fatalf("monotone sequence flagged: %v", err)
	}
	c.Monotone("x", 2)
	if c.Err() == nil {
		t.Fatal("regression not flagged")
	}
	c2 := &Checker{}
	c2.NonNegative("cap", rtime.TUs(-1))
	if c2.Err() == nil {
		t.Fatal("negative duration not flagged")
	}
	if len(c2.Violations()) != 1 {
		t.Fatalf("want 1 violation, got %v", c2.Violations())
	}
}
