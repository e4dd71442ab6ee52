// Pathfinder: the canonical priority-inversion story (Mars Pathfinder,
// 1997), replayed on the RTSJ emulation. A low-priority meteo task shares a
// bus monitor with the high-priority dispatcher; a medium-priority
// communication task preempts the meteo task while it holds the monitor,
// and the dispatcher — blocked behind both — misses its deadline and
// triggers the watchdog. The RTSJ mandates priority inheritance on
// monitors precisely to bound this inversion; this example runs the same
// workload with and without it.
//
// Run with: go run ./examples/pathfinder
package main

import (
	"fmt"

	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/trace"
)

func run(inherit bool) {
	vm := rtsjvm.NewVM(trace.New(), rtsjvm.Overheads{}, exec.Options{})
	var bus *rtsjvm.Monitor
	if inherit {
		bus = vm.NewMonitor("bus")
	} else {
		bus = vm.NewMonitorNoAvoidance("bus")
	}

	const deadline = 6.0 // dispatcher must finish its cycle by t=6
	var dispatcherDone rtime.Time

	// Low priority: meteorological data collection, holds the bus 2ms.
	vm.NewRealtimeThread("meteo", 1, nil, func(r *rtsjvm.RTC) {
		bus.Synchronized(r.TC, func() {
			r.Consume(rtime.TUs(2))
		})
		r.Consume(rtime.TUs(1))
	})
	// Medium priority: long communication burst, no bus involved.
	vm.NewRealtimeThread("comms", 5,
		&rtsjvm.PeriodicParameters{Start: rtime.AtTU(1.5), Period: rtime.TUs(100), Cost: rtime.TUs(5)},
		func(r *rtsjvm.RTC) {
			r.Consume(rtime.TUs(5))
		})
	// High priority: bus dispatcher, needs the bus briefly.
	vm.NewRealtimeThread("dispatch", 9,
		&rtsjvm.PeriodicParameters{Start: rtime.AtTU(1), Period: rtime.TUs(100), Cost: rtime.TUs(1)},
		func(r *rtsjvm.RTC) {
			bus.Synchronized(r.TC, func() {
				r.Consume(rtime.TUs(1))
			})
			dispatcherDone = r.Now()
		})

	if err := vm.Run(rtime.AtTU(12)); err != nil {
		panic(err)
	}
	vm.Shutdown()

	mode := "WITHOUT priority inheritance"
	if inherit {
		mode = "WITH priority inheritance (RTSJ default)"
	}
	fmt.Printf("=== %s ===\n", mode)
	fmt.Println(vm.Trace().Gantt(trace.GanttOptions{Until: rtime.AtTU(12)}))
	verdict := "met its deadline"
	if dispatcherDone.TUs() > deadline {
		verdict = "MISSED its deadline -> watchdog reset"
	}
	fmt.Printf("dispatcher finished at t=%v (deadline %v): %s\n\n",
		dispatcherDone.TUs(), deadline, verdict)
}

func main() {
	run(false)
	run(true)
}
