// Command feasibility runs the off-line analysis toolbox over a system
// description: fixed-priority response-time analysis (accounting for the
// configured task server's interference), utilization bounds, and EDF
// processor-demand analysis.
//
// Usage:
//
//	feasibility [-f system.rtss]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rtsj/internal/analysis"
	"rtsj/internal/sim"
	"rtsj/internal/spec"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, analyzes the system read from
// -f or stdin and returns the exit status — 0 when the exact analysis
// finds the system feasible, 2 when it finds it infeasible or the command
// line is malformed, 1 for every other error (unreadable file, bad spec,
// no periodic task to analyze).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("feasibility", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "system description file (default: stdin)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "feasibility: %v\n", err)
		return 1
	}

	in := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	parsed, err := spec.Parse(in)
	if err != nil {
		return fail(err)
	}

	var tasks []analysis.Task
	for _, t := range parsed.System.Periodics {
		tasks = append(tasks, analysis.Task{
			Name: t.Name, C: t.Cost, T: t.Period, D: t.Deadline, Prio: t.Priority,
		})
	}
	if s := parsed.System.Server; s != nil {
		switch s.Policy {
		case sim.DeferrableServer, sim.LimitedDeferrableServer:
			tasks = analysis.WithDeferrableServer(tasks, s.Capacity, s.Period, s.Priority)
			fmt.Fprintf(stdout, "server: DS C=%v T=%v (modified analysis: release jitter %v)\n",
				s.Capacity, s.Period, s.Period-s.Capacity)
		case sim.PollingServer, sim.LimitedPollingServer, sim.SporadicServer, sim.PriorityExchange:
			tasks = analysis.WithPollingServer(tasks, s.Capacity, s.Period, s.Priority)
			fmt.Fprintf(stdout, "server: %s C=%v T=%v (analyzed as a periodic task)\n",
				s.Policy, s.Capacity, s.Period)
		case sim.SlackStealer:
			fmt.Fprintln(stdout, "server: slack stealer (steals only provable slack; periodic analysis unchanged)")
		default:
			fmt.Fprintln(stdout, "server: background servicing (no interference)")
		}
	}
	if len(tasks) == 0 {
		return fail(fmt.Errorf("nothing to analyze: no periodic tasks"))
	}

	fmt.Fprintln(stdout, "\nFixed-priority response-time analysis:")
	feasible := true
	for _, r := range analysis.ResponseTimes(tasks) {
		fmt.Fprintln(stdout, "  "+r.String())
		if !r.Feasible {
			feasible = false
		}
	}
	fmt.Fprintf(stdout, "\nutilization         : %.3f\n", analysis.Utilization(tasks))
	fmt.Fprintf(stdout, "Liu-Layland bound   : %.3f  pass=%v\n",
		analysis.LiuLaylandBound(len(tasks)), analysis.FeasibleLiuLayland(tasks))
	fmt.Fprintf(stdout, "hyperbolic bound    : pass=%v\n", analysis.FeasibleHyperbolic(tasks))
	fmt.Fprintf(stdout, "EDF demand analysis : pass=%v\n", analysis.EDFFeasible(tasks))
	fmt.Fprintf(stdout, "exact RTA verdict   : feasible=%v\n", feasible)
	if !feasible {
		return 2
	}
	return 0
}
