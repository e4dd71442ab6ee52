package sim

import (
	"slices"
	"testing"

	"rtsj/internal/rtime"
)

func recycleTestSystem() System {
	return System{
		Periodics: []PeriodicTask{
			{Name: "tau1", Period: rtime.TUs(6), Cost: rtime.TUs(2), Priority: 50},
			{Name: "tau2", Period: rtime.TUs(8), Cost: rtime.TUs(1), Priority: 40},
		},
		Aperiodics: []AperiodicJob{
			{Name: "e1", Release: rtime.AtTU(1), Cost: rtime.TUs(2)},
			{Name: "e2", Release: rtime.AtTU(7), Cost: rtime.TUs(1)},
			{Name: "e3", Release: rtime.AtTU(13), Cost: rtime.TUs(3)},
		},
		Server: &ServerSpec{Policy: DeferrableServer, Capacity: rtime.TUs(4), Period: rtime.TUs(6), Priority: 100},
	}
}

type jobSnapshot struct {
	name     string
	periodic bool
	release  rtime.Time
	finish   rtime.Time
	finished bool
	started  bool
	aborted  bool
	remain   rtime.Duration
}

func snapshotJobs(r *Result) []jobSnapshot {
	out := make([]jobSnapshot, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		out = append(out, jobSnapshot{
			name:     j.Name(),
			periodic: j.Periodic,
			release:  j.Release,
			finish:   j.Finish,
			finished: j.Finished,
			started:  j.Started,
			aborted:  j.Aborted,
			remain:   j.Remaining,
		})
	}
	return out
}

// TestRecycleRerunIdentical pins the reuse contract of a Runner: a run
// whose Job records are the previous run's records produces bit-identical
// outcomes, because the engine fully overwrites every record it takes from
// the Runner's slab.
func TestRecycleRerunIdentical(t *testing.T) {
	sys := recycleTestSystem()
	horizon := rtime.AtTU(24)
	var r Runner
	r1, err := r.Run(sys, horizon)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotJobs(r1)
	if len(want) == 0 {
		t.Fatal("run produced no jobs")
	}
	// Poison the records before the rerun so a stale field that survives
	// reuse cannot silently match.
	first := r1.Jobs[0]
	for _, j := range r1.Jobs {
		j.Remaining = rtime.TUs(999)
		j.Finished = false
		j.Aborted = true
	}

	r2, err := r.Run(sys, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Jobs[0] != first {
		t.Fatal("rerun did not reuse the Runner's job records")
	}
	got := snapshotJobs(r2)
	if len(got) != len(want) {
		t.Fatalf("rerun produced %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d after reuse = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRecycleAfterPartition checks a Runner's next run resets the cached
// periodic/aperiodic partition along with the job records: after run A has
// been partitioned, run B on the same Runner must partition B's jobs.
func TestRecycleAfterPartition(t *testing.T) {
	a := recycleTestSystem()
	b := recycleTestSystem()
	b.Periodics = b.Periodics[:1]
	b.Aperiodics = append(b.Aperiodics, AperiodicJob{Name: "e4", Release: rtime.AtTU(19), Cost: rtime.TUs(1)})
	horizon := rtime.AtTU(24)

	var r Runner
	ra, err := r.Run(a, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Aperiodics()) == 0 || len(ra.Periodics()) == 0 {
		t.Fatal("partition of run A empty")
	}
	rb, err := r.Run(b, horizon)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(b, NewFP(b, nil), horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := func(js []*Job) []string {
		out := make([]string, len(js))
		for i, j := range js {
			out[i] = j.Name()
		}
		return out
	}
	for _, c := range []struct {
		part      string
		got, want []*Job
	}{
		{"Aperiodics", rb.Aperiodics(), fresh.Aperiodics()},
		{"Periodics", rb.Periodics(), fresh.Periodics()},
	} {
		if g, w := names(c.got), names(c.want); !slices.Equal(g, w) {
			t.Fatalf("run B %s = %v, want B's %v", c.part, g, w)
		}
	}
}
