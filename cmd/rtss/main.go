// Command rtss is the discrete-event real-time system simulator of the
// paper's Section 5: it simulates a system description under Preemptive
// Fixed Priority (with an optional aperiodic task server), EDF or D-OVER,
// and displays a temporal diagram of the simulated execution.
//
// Usage:
//
//	rtss [-f system.rtss] [-exec] [-scale 1tu] [-quiet] [-perfetto out.json]
//
// Reads the system from the file (or stdin) in the internal/spec format.
// With -exec, the workload is additionally executed on the Task Server
// Framework (RTSJ emulation) and both outcomes are shown. With -quiet (and
// no -csv/-json) both engines run entirely trace-free: the simulator and
// the virtual-time executive skip every segment append and label format.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rtsj/internal/experiments"
	"rtsj/internal/faults"
	"rtsj/internal/metrics"
	"rtsj/internal/rtime"
	"rtsj/internal/sim"
	"rtsj/internal/spec"
	"rtsj/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rtss: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command, factored out of main so the golden-file test
// can drive it end to end (flags through serialized trace exports).
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("rtss", flag.ContinueOnError)
	file := fs.String("f", "", "system description file (default: stdin)")
	execToo := fs.Bool("exec", false, "also execute on the Task Server Framework")
	scale := fs.String("scale", "1tu", "gantt column width")
	quiet := fs.Bool("quiet", false, "suppress the gantt chart, print metrics only")
	csvOut := fs.String("csv", "", "write the simulation trace as CSV to this file")
	jsonOut := fs.String("json", "", "write the simulation trace as JSON to this file")
	perfettoOut := fs.String("perfetto", "", "write the schedule as Chrome trace-event JSON (ui.perfetto.dev) to this file; with -exec, the execution schedule")
	faultsFlag := fs.String("faults", "", "fault plan (e.g. 'seed=1 overrun=0.2:0.5'); overrides the file's faults directive; 'off' disables")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		return err
	}

	var in io.Reader = stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	parsed, err := spec.Parse(in)
	if err != nil {
		return err
	}
	if *faultsFlag != "" {
		plan, err := faults.Parse(*faultsFlag)
		if err != nil {
			return err
		}
		parsed.Faults = plan
	}
	// A fault plan rewrites the aperiodic workload (drops, jitter, cost
	// overruns) before either engine sees it; with no plan (or 'off') the
	// system is untouched and the output is byte-identical to a fault-free
	// build.
	parsed.System = parsed.Faults.ApplySystem(parsed.System, 0)
	colw, err := rtime.ParseDuration(*scale)
	if err != nil {
		return err
	}
	opts := trace.GanttOptions{Scale: colw, Until: parsed.Horizon}

	// Metrics-only invocations skip trace recording entirely: the engine
	// then also skips its per-job label formatting (the fast path the
	// table experiments use).
	var tr *trace.Trace
	if !*quiet || *csvOut != "" || *jsonOut != "" || (*perfettoOut != "" && !*execToo) {
		tr = trace.New()
	}
	var d sim.Dispatcher
	switch parsed.Policy {
	case spec.EDF:
		d = sim.NewEDF()
	case spec.DOver:
		d = sim.NewDOver(parsed.System, tr)
	default:
		d = sim.NewFP(parsed.System, tr)
	}
	result, err := sim.Run(parsed.System, d, parsed.Horizon, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "== RTSS simulation (%s) ==\n", d.Name())
	if !*quiet {
		fmt.Fprintln(stdout, tr.Gantt(opts))
	}
	printMetrics(stdout, metrics.FromSimResult(result), result.PeriodicMisses)

	if *csvOut != "" {
		if err := writeTrace(*csvOut, tr.WriteCSV); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := writeTrace(*jsonOut, tr.WriteJSON); err != nil {
			return err
		}
	}
	if *perfettoOut != "" && !*execToo {
		if err := writeTrace(*perfettoOut, tr.WritePerfetto); err != nil {
			return err
		}
	}

	if *execToo {
		if parsed.Policy != spec.FP || parsed.System.Server == nil {
			return fmt.Errorf("-exec needs an FP system with a ps/ds server")
		}
		// Quiet executions run on the executive's trace-free fast path —
		// unless a Perfetto export needs the execution schedule recorded.
		runExec := experiments.RunExecution
		if *quiet && *perfettoOut == "" {
			runExec = experiments.RunExecutionMetrics
		}
		o, err := runExec(parsed.System, experiments.DefaultExecModel(), parsed.Horizon)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Task Server Framework execution ==")
		if !*quiet {
			fmt.Fprintln(stdout, o.Trace.Gantt(opts))
		}
		printMetrics(stdout, metrics.FromRecords(o.Records), 0)
		if *perfettoOut != "" {
			if err := writeTrace(*perfettoOut, o.Trace.WritePerfetto); err != nil {
				return err
			}
		}
	}
	return nil
}

func printMetrics(w io.Writer, evs []metrics.Event, misses int) {
	s := metrics.Summarize(evs)
	fmt.Fprintf(w, "aperiodics: %d total, %d served, %d interrupted\n", s.Total, s.Served, s.Interrupted)
	if s.Served > 0 {
		fmt.Fprintf(w, "avg response %.2ftu, max %.2ftu\n", s.AvgResponse, s.MaxResponse)
	}
	if misses > 0 {
		fmt.Fprintf(w, "PERIODIC DEADLINE MISSES: %d\n", misses)
	}
	fmt.Fprintln(w)
}

func writeTrace(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
