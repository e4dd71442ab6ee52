package rtsjvm

import (
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Differential tests for the two periodic emulation modes at the VM layer:
// a periodic realtime thread written as a WaitForNextPeriod loop
// (NewRealtimeThread) and the same thread written as a per-release
// activation body (NewActivationThread) must produce trace-for-trace
// identical schedules, with the loop as the reference, whose trace must
// match the committed fingerprint.

// periodicScenario builds a VM workload from a per-release work function
// for each periodic thread, so the same scenario can be expressed in
// either mode.
type periodicScenario struct {
	name    string
	oh      Overheads
	horizon rtime.Time
	// build creates the workload; periodic installs one periodic thread in
	// the mode under test.
	build func(vm *VM, periodic func(name string, prio int, pp *PeriodicParameters, work func(*RTC)))
}

var periodicModeCorpus = []periodicScenario{
	{"plain-periodics", Overheads{}, rtime.AtTU(40), func(vm *VM, periodic func(string, int, *PeriodicParameters, func(*RTC))) {
		periodic("p1", 5, &PeriodicParameters{Period: rtime.TUs(5), Cost: rtime.TUs(1)},
			func(r *RTC) { r.Consume(rtime.TUs(1)) })
		periodic("p2", 3, &PeriodicParameters{Start: rtime.AtTU(1), Period: rtime.TUs(7), Cost: rtime.TUs(2)},
			func(r *RTC) { r.Consume(rtime.TUs(2)) })
	}},
	{"overrun-skips", Overheads{}, rtime.AtTU(60), func(vm *VM, periodic func(string, int, *PeriodicParameters, func(*RTC))) {
		n := 0
		periodic("over", 5, &PeriodicParameters{Period: rtime.TUs(4), Cost: rtime.TUs(1)},
			func(r *RTC) {
				n++
				if n == 1 {
					r.Consume(rtime.TUs(9)) // overruns two releases
				} else {
					r.Consume(rtime.TUs(1))
				}
			})
	}},
	{"periodic-vs-events", Overheads{TimerFire: rtime.TUs(0.15), EventRelease: rtime.TUs(0.05)},
		rtime.AtTU(30), func(vm *VM, periodic func(string, int, *PeriodicParameters, func(*RTC))) {
			periodic("p", 4, &PeriodicParameters{Period: rtime.TUs(6), Cost: rtime.TUs(2)},
				func(r *RTC) { r.Consume(rtime.TUs(2)) })
			h := vm.NewAsyncEventHandler("h", 6, nil, func(tc *exec.TC) { tc.Consume(rtime.TUs(1)) })
			e := vm.NewAsyncEvent("e")
			e.AddHandler(h)
			vm.NewOneShotTimer(rtime.AtTU(3), e, "e").Start()
			vm.NewPeriodicTimer(rtime.AtTU(8), rtime.TUs(9), e, "e").Start()
		}},
	{"periodic-with-monitor", Overheads{}, rtime.AtTU(50), func(vm *VM, periodic func(string, int, *PeriodicParameters, func(*RTC))) {
		m := vm.NewMonitor("m")
		periodic("locker", 3, &PeriodicParameters{Period: rtime.TUs(8), Cost: rtime.TUs(3)},
			func(r *RTC) { m.Synchronized(r.TC, func() { r.Consume(rtime.TUs(3)) }) })
		vm.NewRealtimeThread("contender", 5, nil, func(r *RTC) {
			r.SleepUntil(rtime.AtTU(1))
			for i := 0; i < 3; i++ {
				m.Synchronized(r.TC, func() { r.Consume(rtime.TUs(1)) })
				r.Sleep(rtime.TUs(7))
			}
		})
	}},
	{"periodic-with-timed", Overheads{Interrupt: rtime.TUs(0.1)}, rtime.AtTU(40), func(vm *VM, periodic func(string, int, *PeriodicParameters, func(*RTC))) {
		periodic("budgeted", 4, &PeriodicParameters{Period: rtime.TUs(10), Cost: rtime.TUs(4)},
			func(r *RTC) {
				timed := vm.NewTimed(rtime.TUs(2))
				timed.DoInterruptible(r.TC, Interruptible{
					Run: func(tc *exec.TC) { tc.Consume(rtime.TUs(4)) },
				})
			})
		vm.NewRealtimeThread("bg", 1, nil, func(r *RTC) { r.Consume(rtime.TUs(20)) })
	}},
}

// periodicModeFingerprints pins the reference trace of every
// periodicModeCorpus scenario, captured like vmFingerprints.
var periodicModeFingerprints = map[string]uint64{
	"plain-periodics":       0xb9f83dc0ada06a53,
	"overrun-skips":         0xbe00cbec8ec22f11,
	"periodic-vs-events":    0x216d05e07d56d8ea,
	"periodic-with-monitor": 0x31d8ed211a29d3b3,
	"periodic-with-timed":   0xff5735f47497de27,
}

func TestPeriodicModeDiffCorpus(t *testing.T) {
	for _, sc := range periodicModeCorpus {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(activation bool) *VM {
				t.Helper()
				vm := NewVMSink(trace.New(), sc.oh, exec.Options{})
				sc.build(vm, func(name string, prio int, pp *PeriodicParameters, work func(*RTC)) {
					if activation {
						vm.NewActivationThread(name, prio, pp, work)
						return
					}
					vm.NewRealtimeThread(name, prio, pp, func(r *RTC) {
						for {
							work(r)
							r.WaitForNextPeriod()
						}
					})
				})
				if err := vm.Run(sc.horizon); err != nil {
					t.Fatalf("activation=%v: %v", activation, err)
				}
				vm.Shutdown()
				return vm
			}
			ref := run(false)
			checkVMPinned(t, periodicModeFingerprints, sc.name, ref)
			got := run(true)
			label := sc.name + "/activation"
			compareVMTraces(t, label, ref.Trace(), got.Trace())
			if ref.Now() != got.Now() {
				t.Errorf("%s: final time differs: ref=%v got=%v",
					label, ref.Now().TUs(), got.Now().TUs())
			}
		})
	}
}

// TestActivationThreadMissedMatchesLoop pins the skip-and-count overrun
// semantics across the two modes: the activation entity's missed count
// must equal the count a looping WaitForNextPeriod accumulates.
func TestActivationThreadMissedMatchesLoop(t *testing.T) {
	pp := &PeriodicParameters{Period: rtime.TUs(4), Cost: rtime.TUs(1)}
	overrunWork := func(k int) rtime.Duration {
		if k%2 == 0 {
			return rtime.TUs(9) // overruns two releases
		}
		return rtime.TUs(1)
	}

	// Horizon 62: the last overrun's WaitForNextPeriod returns at t=60, so
	// the loop observes its final skip count before the run ends (Missed
	// only updates inside WaitForNextPeriod, which the horizon must not
	// truncate).
	vmLoop := NewVM(nil, Overheads{})
	loopMissed := 0
	vmLoop.NewRealtimeThread("p", 5, pp, func(r *RTC) {
		for k := 0; ; k++ {
			r.Consume(overrunWork(k))
			r.WaitForNextPeriod()
			loopMissed = r.Missed
		}
	})
	if err := vmLoop.Run(rtime.AtTU(62)); err != nil {
		t.Fatal(err)
	}
	vmLoop.Shutdown()
	if loopMissed == 0 {
		t.Fatal("loop scenario never missed a release; test is vacuous")
	}

	vmAct := NewVM(nil, Overheads{})
	k, lastMissed := 0, 0
	rt := vmAct.NewActivationThread("p", 5, pp, func(r *RTC) {
		r.Consume(overrunWork(k))
		k++
		lastMissed = r.Missed
	})
	if err := vmAct.Run(rtime.AtTU(62)); err != nil {
		t.Fatal(err)
	}
	vmAct.Shutdown()
	if got := rt.Thread().MissedActivations(); got != loopMissed {
		t.Errorf("activation mode missed %d releases, loop mode %d", got, loopMissed)
	}
	if !rt.Activation() {
		t.Error("thread not reported as activation mode")
	}
	_ = lastMissed // the per-body snapshot lags the post-run total by design
}

func TestWaitForNextPeriodPanicsInActivationBody(t *testing.T) {
	vm := NewVM(nil, Overheads{})
	defer vm.Shutdown()
	vm.NewActivationThread("p", 5, &PeriodicParameters{Period: rtime.TUs(5), Cost: rtime.TUs(1)},
		func(r *RTC) { r.WaitForNextPeriod() })
	err := vm.Run(rtime.AtTU(10))
	if err == nil {
		t.Fatal("WaitForNextPeriod in an activation body did not fail the run")
	}
}
