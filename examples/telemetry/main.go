// Telemetry: a realistic event-based real-time application — the kind the
// paper's introduction motivates. A flight-telemetry node runs hard
// periodic control loops while sporadic alarms (link loss, threshold
// crossings, operator commands) arrive as asynchronous events. A
// Deferrable Server gives the alarms fast, bounded service without
// breaking the periodic tasks' guarantees — checked before the run with
// the scheduler's feasibility analysis, using the server's Interference
// hook (the paper's Section 3 proposal).
//
// Run with: go run ./examples/telemetry
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
	// A platform with explicit overheads: timer firings cost 20us at the
	// top priority, releases 10us.
	vm := rtsjvm.NewVM(trace.New(), rtsjvm.Overheads{
		TimerFire:    20 * rtime.Microsecond,
		EventRelease: 10 * rtime.Microsecond,
	}, exec.Options{})

	// Deferrable Server: 2ms of alarm service every 10ms.
	params := core.NewTaskServerParameters(0, rtime.TUs(2), rtime.TUs(10))
	server := core.NewDeferrableTaskServer(vm, "alarm-server", 50, params)

	// Periodic control loops.
	type loop struct {
		name         string
		prio         int
		period, cost float64
	}
	loops := []loop{
		{"attitude-ctl", 40, 10, 2},
		{"telemetry-tx", 30, 20, 4},
		{"housekeeping", 20, 50, 5},
	}
	sched := vm.Scheduler()
	sched.AddToFeasibility(server)
	for _, l := range loops {
		l := l
		pp := &rtsjvm.PeriodicParameters{Period: rtime.TUs(l.period), Cost: rtime.TUs(l.cost)}
		rt := vm.NewRealtimeThread(l.name, l.prio, pp, func(r *rtsjvm.RTC) {
			for {
				r.Consume(rtime.TUs(l.cost))
				r.WaitForNextPeriod()
			}
		})
		sched.AddToFeasibility(rt)
	}

	// Off-line guarantee before anything runs: the DS contributes its
	// back-to-back interference to every lower-priority loop.
	fmt.Println("Feasibility analysis (DS interference included):")
	for _, r := range sched.ResponseTimes() {
		status := "OK"
		if !r.Feasible {
			status = "MISS"
		}
		fmt.Printf("  %-14s prio=%-3d R=%-8v D=%-8v %s\n", r.Name, r.Priority, r.R, r.Deadline, status)
	}
	if !sched.IsFeasible() {
		fmt.Println("system infeasible; not running")
		return
	}

	// Sporadic alarms: each kind is a servable event bound to a handler
	// with a declared cost.
	alarm := func(name string, cost float64) *core.ServableAsyncEvent {
		h := core.NewServableAsyncEventHandler(server, name, rtime.TUs(cost))
		h.SetLogic(func(tc *exec.TC) {
			tc.Consume(rtime.TUs(cost)) // classify, log, raise downlink flag
		})
		e := core.NewServableAsyncEvent(vm, name)
		e.AddServableHandler(h)
		return e
	}
	linkLoss := alarm("link-loss", 1.5)
	thresh := alarm("threshold", 0.5)
	command := alarm("command", 1.0)

	// An arrival pattern over 100ms.
	fires := []struct {
		at rtime.Time
		ev *core.ServableAsyncEvent
	}{
		{rtime.AtTU(7), thresh},
		{rtime.AtTU(8), command},
		{rtime.AtTU(23.2), linkLoss},
		{rtime.AtTU(24), thresh},
		{rtime.AtTU(61.7), command},
		{rtime.AtTU(62), linkLoss},
		{rtime.AtTU(62.1), thresh},
	}
	for i, f := range fires {
		t := vm.NewOneShotTimer(f.at, f.ev, fmt.Sprintf("%s#%d", f.ev.Name(), i))
		t.Start()
	}

	if err := vm.Run(rtime.AtTU(100)); err != nil {
		panic(err)
	}
	vm.Shutdown()

	fmt.Println("\nFirst 40ms of the schedule:")
	fmt.Println(vm.Trace().Gantt(trace.GanttOptions{Until: rtime.AtTU(40), Scale: rtime.TUs(0.5), AxisEvery: 10}))

	fmt.Println("Alarm service:")
	for _, rec := range server.Records() {
		switch {
		case rec.Served:
			fmt.Printf("  %-10s released %6.1fms  response %v\n",
				rec.Handler, rec.Released.TUs(), rec.Response())
		case rec.Interrupted:
			fmt.Printf("  %-10s released %6.1fms  INTERRUPTED\n", rec.Handler, rec.Released.TUs())
		default:
			fmt.Printf("  %-10s released %6.1fms  pending\n", rec.Handler, rec.Released.TUs())
		}
	}
}
