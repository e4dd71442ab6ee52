package sim

import (
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

// TestRecycleRerunIdentical pins the pooling contract: a run whose Job
// records come from recycled pool entries produces bit-identical outcomes
// to a fresh run, because the engine fully overwrites every record it takes
// from the pool.
func TestRecycleRerunIdentical(t *testing.T) {
	sys := recycleTestSystem()
	horizon := rtime.AtTU(24)
	run := func() (*Result, []jobSnapshot) {
		r, err := Run(sys, NewFP(sys, nil), horizon, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r, snapshotJobs(r)
	}
	r1, want := run()
	if len(want) == 0 {
		t.Fatal("run produced no jobs")
	}
	// Poison the records before recycling so a stale field that survives
	// pool reuse cannot silently match.
	for _, j := range r1.Jobs {
		j.Remaining = rtime.TUs(999)
		j.Finished = false
		j.Aborted = true
	}
	r1.Recycle()
	if r1.Jobs != nil {
		t.Fatal("Recycle left Jobs non-nil")
	}

	_, got := run()
	if len(got) != len(want) {
		t.Fatalf("rerun produced %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d after recycle = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRecycleAfterPartition checks recycling resets the cached
// periodic/aperiodic partition along with the job records.
func TestRecycleAfterPartition(t *testing.T) {
	sys := recycleTestSystem()
	r, err := Run(sys, NewFP(sys, nil), rtime.AtTU(24), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Aperiodics()) == 0 || len(r.Periodics()) == 0 {
		t.Fatal("partition empty before recycle")
	}
	r.Recycle()
	if len(r.Aperiodics()) != 0 || len(r.Periodics()) != 0 {
		t.Fatal("partition not reset by Recycle")
	}
}
