package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"rtsj/internal/core"
	"rtsj/internal/exec"
	"rtsj/internal/gen"
	"rtsj/internal/obs"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/sim"
	"rtsj/internal/trace"
)

// runSnapshot is everything a run shows from outside: its error, the
// server's records, each thread's accounting and, when recording, the
// schedule's fingerprint.
type runSnapshot struct {
	Err         string
	Records     []core.EventRecord
	Threads     []threadSnapshot
	Migrations  int
	Fingerprint uint64
}

type threadSnapshot struct {
	Name       string
	Consumed   rtime.Duration
	Done       bool
	Missed     int
	Aborted    int
	Migrations int
	Err        string
}

// resetCase is one system of the TestVMResetMatchesFresh sequence: the
// executive configuration it runs on, whether it records a trace, and how
// it is built and run on a VM.
type resetCase struct {
	name   string
	opts   exec.Options
	record bool
	run    func(vm *rtsjvm.VM) (core.TaskServer, error)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func snapshotRun(vm *rtsjvm.VM, srv core.TaskServer, err error) runSnapshot {
	s := runSnapshot{Err: errString(err), Migrations: vm.Exec().Migrations()}
	if srv != nil {
		for _, r := range srv.Records() {
			s.Records = append(s.Records, *r)
		}
	}
	for _, th := range vm.Exec().Threads() {
		s.Threads = append(s.Threads, threadSnapshot{
			Name: th.Name(), Consumed: th.Consumed(), Done: th.Done(),
			Missed: th.MissedActivations(), Aborted: th.AbortedActivations(),
			Migrations: th.Migrations(), Err: errString(th.Err()),
		})
	}
	if tr := vm.Trace(); tr != nil {
		s.Fingerprint = tr.Fingerprint()
	}
	return s
}

// tableSystem returns system i of a table set with the policy's server
// attached, plus the set's horizon.
func tableSystem(key string, i int, policy sim.ServerPolicy) (sim.System, rtime.Time) {
	p := GenParams(key)
	sys := gen.Generate(p)[i]
	spec := gen.ServerSpecOf(p, policy, 100)
	sys.Server = &spec
	return sys, p.Horizon()
}

// bridgeCase runs a generated table system through the bridge, with the
// given periodic tasks added.
func bridgeCase(name string, opts exec.Options, record bool, key string, i int, policy sim.ServerPolicy, periodics ...sim.PeriodicTask) resetCase {
	sys, horizon := tableSystem(key, i, policy)
	sys.Periodics = periodics
	m := DefaultExecModel()
	m.SysIndex = i
	return resetCase{name, opts, record, func(vm *rtsjvm.VM) (core.TaskServer, error) {
		return runOnVM(vm, sys, m, horizon)
	}}
}

// TestVMResetMatchesFresh runs a sequence of systems on one VM, resetting
// it between them, and each system again on a fresh VM: records, per-
// thread accounting and recorded schedules must be identical. The
// sequence covers the three framework servers, activation and looping
// periodics, Timed interrupts (from the model's cost noise and from a
// looping thread's own budget), bodies still in progress at the horizon
// (every server), a run ending with a thread error, and 1 CPU as well as
// 2 CPUs under Global and Partitioned migration, with and without Stats.
func TestVMResetMatchesFresh(t *testing.T) {
	tu := rtime.TUs
	periodics := []sim.PeriodicTask{
		{Name: "tau1", Offset: 0, Period: tu(5), Cost: tu(1), Priority: 20},
		{Name: "tau2", Offset: rtime.Time(tu(1)), Period: tu(7), Cost: tu(2), Priority: 10},
	}
	global2 := exec.Options{CPUs: 2, Migration: exec.Global}
	part2 := exec.Options{CPUs: 2, Migration: exec.Partitioned, MigrationCost: tu(0.1)}
	withStats := exec.Options{Stats: exec.NewStats(obs.NewRegistry())}

	// A PS system whose extra realtime thread panics mid-run.
	threadError := func(vm *rtsjvm.VM) (core.TaskServer, error) {
		sys, horizon := tableSystem("(2, 2)", 3, sim.LimitedPollingServer)
		vm.NewRealtimeThread("boom", 50, nil, func(r *rtsjvm.RTC) {
			r.Consume(tu(2))
			r.SleepUntil(rtime.Time(tu(9)))
			panic("deliberate failure")
		})
		srv, err := runOnVM(vm, sys, DefaultExecModel(), horizon)
		if err == nil {
			return nil, fmt.Errorf("the panicking thread did not fail the run")
		}
		return srv, err
	}
	// Looping periodics, one of which overruns a Timed budget every
	// period, beside a DS serving a generated set. The run stops at half
	// the set's horizon, so timers stay armed past it for the next,
	// longer run to trip over; and two firings just before the horizon
	// leave the second queued for the timer daemon when the run ends.
	looping := func(vm *rtsjvm.VM) (core.TaskServer, error) {
		sys, horizon := tableSystem("(1, 2)", 5, sim.LimitedDeferrableServer)
		horizon /= 2
		late := horizon.Add(-tu(0.1))
		noop := rtsjvm.FirableFunc(func(*exec.TC) {})
		vm.FireAt(late, noop, "late1")
		vm.FireAt(late, noop, "late2")
		timed := vm.NewTimed(tu(1))
		vm.NewRealtimeThread("loopA", 30, &rtsjvm.PeriodicParameters{Period: tu(4), Cost: tu(1.5)}, func(r *rtsjvm.RTC) {
			for {
				timed.DoInterruptible(r.TC, rtsjvm.Interruptible{Run: func(tc *exec.TC) { tc.Consume(tu(1.5)) }})
				r.WaitForNextPeriod()
			}
		})
		vm.NewRealtimeThread("loopB", 25, &rtsjvm.PeriodicParameters{Start: rtime.Time(tu(2)), Period: tu(9), Cost: tu(3)}, func(r *rtsjvm.RTC) {
			for {
				r.Consume(tu(3))
				r.WaitForNextPeriod()
			}
		})
		return runOnVM(vm, sys, DefaultExecModel(), horizon)
	}

	cases := []resetCase{
		bridgeCase("PS", exec.Options{}, false, "(2, 2)", 0, sim.LimitedPollingServer),
		bridgeCase("DS traced", exec.Options{}, true, "(3, 2)", 1, sim.LimitedDeferrableServer),
		bridgeCase("SS with activation periodics, 2 CPUs global", global2, true, "(2, 0)", 2, sim.SporadicServer, periodics...),
		{"thread error", exec.Options{}, true, threadError},
		bridgeCase("PS after an error", exec.Options{}, false, "(3, 0)", 4, sim.LimitedPollingServer),
		{"looping periodics with Timed, 2 CPUs partitioned", part2, true, looping},
		bridgeCase("DS with activation periodics, 2 CPUs partitioned", part2, false, "(2, 2)", 6, sim.LimitedDeferrableServer, periodics...),
		bridgeCase("PS with stats", withStats, true, "(1, 0)", 7, sim.LimitedPollingServer, periodics...),
		bridgeCase("SS, 1 CPU", exec.Options{}, true, "(3, 2)", 8, sim.SporadicServer),
	}
	traceFor := func(c resetCase) *trace.Trace {
		if c.record {
			return trace.New()
		}
		return nil
	}
	oh := DefaultExecModel().Overheads
	var reused *rtsjvm.VM
	defer func() { reused.Shutdown() }()
	interrupted := 0
	for _, c := range cases {
		fresh := rtsjvm.NewVM(traceFor(c), oh, c.opts)
		srv, err := c.run(fresh)
		want := snapshotRun(fresh, srv, err)
		fresh.Shutdown()

		if reused == nil {
			reused = rtsjvm.NewVM(traceFor(c), oh, c.opts)
		} else {
			reused.Reset(traceFor(c), oh, c.opts)
		}
		srv, err = c.run(reused)
		got := snapshotRun(reused, srv, err)

		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the reset VM diverges from a fresh one\n got %+v\nwant %+v", c.name, got, want)
		}
		if c.record && want.Fingerprint == 0 {
			t.Errorf("%s: recorded no schedule", c.name)
		}
		if len(want.Records) == 0 && c.name != "thread error" {
			t.Errorf("%s: no event records; the case exercises no server", c.name)
		}
		for _, r := range want.Records {
			if r.Interrupted {
				interrupted++
			}
		}
	}
	if interrupted == 0 {
		t.Error("no Timed interrupt in the whole sequence")
	}
}
