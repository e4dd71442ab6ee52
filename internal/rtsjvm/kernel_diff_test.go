package rtsjvm

import (
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Differential tests over the rtsjvm corpus: every VM scenario from the
// package tests is built on every executive configuration and must produce
// trace-for-trace identical schedules — the timer daemon, event releases,
// Timed/AIE interruption points and monitor hand-offs all included. The
// goroutine-per-thread reference must also match the scenario's committed
// trace fingerprint.

type vmScenario struct {
	name    string
	oh      Overheads
	horizon rtime.Time
	build   func(vm *VM)
}

// vmCorpus mirrors the scenarios exercised by the package's unit tests.
var vmCorpus = []vmScenario{
	{"periodic-thread", Overheads{}, rtime.AtTU(20), func(vm *VM) {
		pp := &PeriodicParameters{Period: rtime.TUs(5), Cost: rtime.TUs(1)}
		vm.NewRealtimeThread("p", 5, pp, func(r *RTC) {
			for i := 0; i < 3; i++ {
				r.Consume(rtime.TUs(1))
				r.WaitForNextPeriod()
			}
		})
	}},
	{"overrun-skips-activations", Overheads{}, rtime.AtTU(40), func(vm *VM) {
		pp := &PeriodicParameters{Period: rtime.TUs(4), Cost: rtime.TUs(1)}
		vm.NewRealtimeThread("p", 5, pp, func(r *RTC) {
			r.Consume(rtime.TUs(9))
			r.WaitForNextPeriod()
			r.Consume(rtime.TUs(1))
			r.WaitForNextPeriod()
		})
	}},
	{"async-event-handlers", Overheads{}, rtime.AtTU(20), func(vm *VM) {
		h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { tc.Consume(rtime.TUs(1)) })
		e := vm.NewAsyncEvent("e")
		e.AddHandler(h)
		vm.NewOneShotTimer(rtime.AtTU(2), e, "e").Start()
		vm.NewOneShotTimer(rtime.AtTU(5), e, "e").Start()
	}},
	{"fire-count-bursts", Overheads{}, rtime.AtTU(20), func(vm *VM) {
		h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { tc.Consume(rtime.TUs(3)) })
		e := vm.NewAsyncEvent("e")
		e.AddHandler(h)
		vm.NewOneShotTimer(rtime.AtTU(0), e, "e").Start()
		vm.NewOneShotTimer(rtime.AtTU(1), e, "e").Start()
	}},
	{"multi-handler-priority", Overheads{}, rtime.AtTU(10), func(vm *VM) {
		mk := func(name string, prio int) *AsyncEventHandler {
			return vm.NewAsyncEventHandler(name, prio, nil, func(tc *exec.TC) { tc.Consume(rtime.TUs(1)) })
		}
		hi, lo := mk("hi", 9), mk("lo", 2)
		e := vm.NewAsyncEvent("e")
		e.AddHandler(lo)
		e.AddHandler(hi)
		vm.NewOneShotTimer(rtime.AtTU(0), e, "e").Start()
	}},
	{"periodic-timer", Overheads{}, rtime.AtTU(11), func(vm *VM) {
		h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { tc.Consume(rtime.TUs(0.5)) })
		e := vm.NewAsyncEvent("tick")
		e.AddHandler(h)
		vm.NewPeriodicTimer(rtime.AtTU(1), rtime.TUs(3), e, "tick").Start()
	}},
	{"timer-fire-overhead", Overheads{TimerFire: rtime.TUs(0.5)}, rtime.AtTU(20), func(vm *VM) {
		h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { tc.Consume(rtime.TUs(1)) })
		e := vm.NewAsyncEvent("e")
		e.AddHandler(h)
		vm.NewOneShotTimer(rtime.AtTU(2), e, "e").Start()
		vm.NewRealtimeThread("busy", 1, nil, func(r *RTC) { r.Consume(rtime.TUs(10)) })
	}},
	{"release-overhead", Overheads{EventRelease: rtime.TUs(0.25)}, rtime.AtTU(10), func(vm *VM) {
		h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { tc.Consume(rtime.TUs(1)) })
		e := vm.NewAsyncEvent("e")
		e.AddHandler(h)
		vm.NewOneShotTimer(rtime.AtTU(0), e, "e").Start()
	}},
	{"timed-interrupt-action", Overheads{Interrupt: rtime.TUs(0.5)}, rtime.AtTU(10), func(vm *VM) {
		vm.NewRealtimeThread("srv", 5, nil, func(r *RTC) {
			timed := vm.NewTimed(rtime.TUs(2))
			timed.DoInterruptible(r.TC, Interruptible{
				Run:             func(tc *exec.TC) { tc.Consume(rtime.TUs(5)) },
				InterruptAction: func(tc *exec.TC) { tc.Consume(rtime.TUs(0.25)) },
			})
		})
	}},
	{"timed-preempted-budget", Overheads{}, rtime.AtTU(10), func(vm *VM) {
		vm.NewRealtimeThread("intruder", 9,
			&PeriodicParameters{Start: rtime.AtTU(1), Period: rtime.TUs(100), Cost: rtime.TUs(1)},
			func(r *RTC) { r.Consume(rtime.TUs(1)) })
		vm.NewRealtimeThread("srv", 5, nil, func(r *RTC) {
			timed := vm.NewTimed(rtime.TUs(4))
			timed.DoInterruptible(r.TC, Interruptible{
				Run: func(tc *exec.TC) { tc.Consume(rtime.TUs(2)) },
			})
		})
	}},
	{"monitor-inversion-avoided", Overheads{}, rtime.AtTU(40), func(vm *VM) {
		m := vm.NewMonitor("m")
		vm.NewRealtimeThread("low", 1, nil, func(r *RTC) {
			m.Synchronized(r.TC, func() { r.Consume(rtime.TUs(5)) })
		})
		vm.NewRealtimeThread("mid", 2, &PeriodicParameters{Start: rtime.AtTU(1)}, func(r *RTC) {
			r.Consume(rtime.TUs(3))
		})
		vm.NewRealtimeThread("high", 3, &PeriodicParameters{Start: rtime.AtTU(2)}, func(r *RTC) {
			m.Synchronized(r.TC, func() { r.Consume(rtime.TUs(1)) })
		})
	}},
	{"pgp-enforced", Overheads{}, rtime.AtTU(100), func(vm *VM) {
		g := vm.NewProcessingGroupParameters(0, rtime.TUs(10), rtime.TUs(2), true)
		vm.NewRealtimeThread("member", 5, nil, func(r *RTC) {
			g.ConsumeGoverned(r.TC, rtime.TUs(6))
		})
	}},
	{"timer-stop-midway", Overheads{}, rtime.AtTU(20), func(vm *VM) {
		count := 0
		h := vm.NewAsyncEventHandler("h", 5, nil, func(tc *exec.TC) { count++; tc.Consume(rtime.TUs(0.25)) })
		e := vm.NewAsyncEvent("tick")
		e.AddHandler(h)
		pt := vm.NewPeriodicTimer(rtime.AtTU(0), rtime.TUs(2), e, "tick")
		pt.Start()
		vm.NewRealtimeThread("stopper", 9, nil, func(r *RTC) {
			r.SleepUntil(rtime.AtTU(5))
			pt.Stop()
		})
	}},
}

// vmFingerprints pins the reference trace of every vmCorpus scenario. The
// values were captured from the executive's former channel-rendezvous
// reference kernel in goroutine-per-thread mode (see exec's
// fingerprint_test.go); a change means a VM schedule changed.
var vmFingerprints = map[string]uint64{
	"periodic-thread":           0xac3533352cfc566d,
	"overrun-skips-activations": 0xc2548db2c3d2fff3,
	"async-event-handlers":      0xe7a0c0a5e84ed2a5,
	"fire-count-bursts":         0xb0ca9900ecbea008,
	"multi-handler-priority":    0xb4025cd6f5907ec1,
	"periodic-timer":            0xabe0744418b5a6e3,
	"timer-fire-overhead":       0x8392e260eaec3643,
	"release-overhead":          0x7e1ddcf0564872a2,
	"timed-interrupt-action":    0x849c4f534090c544,
	"timed-preempted-budget":    0x833ffc3af925357f,
	"monitor-inversion-avoided": 0x6b62524ad212081c,
	"pgp-enforced":              0xdebc17a2bdb2ae65,
	"timer-stop-midway":         0x576f51696c54b1ad,
}

// vmDiffConfigs is the executive configuration matrix the corpus runs on:
// the uniprocessor (the reference) and the M=1 SMP reduction, which must
// be byte-identical to the uniprocessor schedule on the whole VM corpus
// too.
var vmDiffConfigs = []struct {
	name string
	opts exec.Options
}{
	{"direct", exec.Options{}},
	{"direct-smp1", exec.Options{CPUs: 1}},
}

func TestKernelDiffVMCorpus(t *testing.T) {
	for _, sc := range vmCorpus {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(opts exec.Options) *VM {
				vm := NewVM(trace.New(), sc.oh, opts)
				sc.build(vm)
				if err := vm.Run(sc.horizon); err != nil {
					t.Fatalf("%+v: %v", opts, err)
				}
				vm.Shutdown()
				return vm
			}
			ref := run(vmDiffConfigs[0].opts)
			checkVMPinned(t, vmFingerprints, sc.name, ref)
			for _, cfg := range vmDiffConfigs[1:] {
				got := run(cfg.opts)
				compareVMTraces(t, sc.name+"/"+cfg.name, ref.Trace(), got.Trace())
				if ref.Now() != got.Now() {
					t.Errorf("%s/%s: final time differs: ref=%v got=%v",
						sc.name, cfg.name, ref.Now().TUs(), got.Now().TUs())
				}
			}
		})
	}
}

// checkVMPinned fails t unless the reference VM's trace matches the
// committed fingerprint for name in pinned.
func checkVMPinned(t *testing.T, pinned map[string]uint64, name string, ref *VM) {
	t.Helper()
	want, ok := pinned[name]
	if !ok {
		t.Fatalf("%s: no committed fingerprint", name)
	}
	if fp := ref.Trace().Fingerprint(); fp != want {
		t.Errorf("%s: reference schedule fingerprint %#x, committed %#x", name, fp, want)
	}
}

func compareVMTraces(t *testing.T, name string, a, b *trace.Trace) {
	t.Helper()
	if err := b.CheckSingleCPU(); err != nil {
		t.Errorf("%s: trace invalid: %v", name, err)
	}
	if len(a.Segments) != len(b.Segments) {
		t.Errorf("%s: segment counts differ: ref=%d got=%d\nref:\n%s\ngot:\n%s",
			name, len(a.Segments), len(b.Segments),
			a.Gantt(trace.GanttOptions{}), b.Gantt(trace.GanttOptions{}))
		return
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Errorf("%s: segment %d differs: ref=%+v got=%+v",
				name, i, a.Segments[i], b.Segments[i])
			return
		}
	}
	if len(a.Events) != len(b.Events) {
		t.Errorf("%s: event counts differ: ref=%d got=%d", name, len(a.Events), len(b.Events))
		return
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Errorf("%s: event %d differs: ref=%+v got=%+v",
				name, i, a.Events[i], b.Events[i])
			return
		}
	}
}
