// Quickstart: build the paper's Table 1 system with the Task Server
// Framework, fire two events, and look at the resulting schedule.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"rtsj/internal/core"
	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/trace"
)

func main() {
	// A virtual RTSJ machine. The zero Overheads value gives a cost-free
	// platform; see examples/telemetry for a realistic one.
	vm := rtsjvm.NewVM(trace.New(), rtsjvm.Overheads{}, exec.Options{})

	// A Polling Server at the highest application priority: capacity 3
	// every 6 time units.
	params := core.NewTaskServerParameters(0, rtime.TUs(3), rtime.TUs(6))
	server := core.NewPollingTaskServer(vm, "PS", 10, params)

	// Two hard periodic tasks below the server.
	periodic := func(name string, prio int, period, cost float64) {
		pp := &rtsjvm.PeriodicParameters{Period: rtime.TUs(period), Cost: rtime.TUs(cost)}
		vm.NewRealtimeThread(name, prio, pp, func(r *rtsjvm.RTC) {
			for {
				r.Consume(rtime.TUs(cost))
				r.WaitForNextPeriod()
			}
		})
	}
	periodic("tau1", 2, 6, 2)
	periodic("tau2", 1, 6, 1)

	// Two servable events with their handlers, fired by one-shot timers.
	for _, h := range []struct {
		name string
		cost float64
		fire float64
	}{
		{"h1", 2, 0},
		{"h2", 2, 6},
	} {
		handler := core.NewServableAsyncEventHandler(server, h.name, rtime.TUs(h.cost))
		event := core.NewServableAsyncEvent(vm, h.name)
		event.AddServableHandler(handler)
		vm.NewOneShotTimer(rtime.AtTU(h.fire), event, h.name).Start()
	}

	// Run 12 time units of virtual time.
	if err := vm.Run(rtime.AtTU(12)); err != nil {
		panic(err)
	}
	vm.Shutdown()

	fmt.Println("Schedule (this is Figure 2 of the paper):")
	fmt.Println(vm.Trace().Gantt(trace.GanttOptions{Until: rtime.AtTU(12)}))
	for _, rec := range server.Records() {
		fmt.Printf("%s: released %v, response %v\n",
			rec.Handler, rec.Released.TUs(), rec.Response())
	}
}
