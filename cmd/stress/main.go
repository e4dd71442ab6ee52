// Command stress runs the executive's two large-N workloads:
//
// The sporadic scenario (default) releases thousands to tens of thousands
// of one-shot sporadic job threads plus periodic background load,
// exercising the executive's worker pool, which bounds the OS-level
// goroutine count by the preemption depth instead of the thread count.
// The background threads are activation entities.
//
// The steady scenario (-scenario steady) runs thousands to tens of
// thousands of long-running periodic entities, exercising the
// activation-driven dispatch path (exec.SpawnPeriodic) that removes the
// last per-entity goroutine: entities own no goroutine between releases,
// so the whole system runs on a pool-sized worker set.
//
// Usage:
//
//	stress [-scenario sporadic|steady] [-n 10000]
//	       [-background 4] [-cpus 4] [-bands 6] [-seed 2007]
//	       [-faults 'seed=1 drop=0.05'] [-quiet] [-stats]
//	       [-perfetto out.json] [-debug-addr 127.0.0.1:6060]
//
// -stats prints the executive's obs snapshot (context switches, heap
// high-water marks, worker creation) after the run; -perfetto records the
// schedule and exports it as Chrome trace-event JSON; -debug-addr serves
// /debug/pprof and /debug/vars (with the same snapshot under "obs") while
// the run executes. All three are observational: the summary lines and
// the fingerprint are identical with or without them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"rtsj/internal/exec"
	"rtsj/internal/experiments"
	"rtsj/internal/faults"
	"rtsj/internal/harness"
	"rtsj/internal/obs"
	"rtsj/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the selected scenario
// and returns the exit status — 0 on success, 2 for a malformed command
// line (unknown flag, bad flag value), 1 for every other error.
func run(args []string, stdout, stderr io.Writer) int {
	def := experiments.DefaultStressParams()
	steadyDef := experiments.DefaultSteadyStateParams()
	fs := flag.NewFlagSet("stress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "sporadic", "workload: sporadic (one-shot jobs) or steady (periodic entities)")
	n := fs.Int("n", 0, "job count (sporadic) or entity count (steady); 0 = scenario default")
	background := fs.Int("background", def.Background, "periodic background threads (sporadic scenario)")
	bands := fs.Int("bands", def.PriorityBands, "priority bands for the sporadic jobs")
	horizon := fs.Float64("horizon", steadyDef.HorizonTU, "steady-scenario horizon in time units")
	cpus := fs.Int("cpus", 0, "virtual CPUs for the sporadic scenario (0 = uniprocessor)")
	seed := fs.Uint64("seed", def.Seed, "scenario seed")
	faultsFlag := fs.String("faults", "", "fault plan for the sporadic jobs (e.g. 'seed=1 overrun=0.2:0.5 drop=0.05'); 'off' or empty for none")
	quiet := fs.Bool("quiet", false, "print only the summary line")
	stats := fs.Bool("stats", false, "print the executive's obs stats snapshot after the run")
	perfetto := fs.String("perfetto", "", "record the schedule and write Chrome trace-event JSON (ui.perfetto.dev) to this file")
	debugAddr := fs.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address during the run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "stress: %v\n", err)
		return 1
	}
	plan, err := faults.Parse(*faultsFlag)
	if err != nil {
		return fail(fmt.Errorf("-faults: %v", err))
	}
	if *n < 0 || *background < 0 || *bands <= 0 || *cpus < 0 {
		return fail(fmt.Errorf("-n, -background and -cpus must be >= 0; -bands must be positive"))
	}
	// Reject flags the selected scenario would silently ignore: a user
	// comparing configurations must not believe a setting took effect when
	// it did not.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch *scenario {
	case "steady":
		if set["background"] || set["bands"] || set["faults"] || set["cpus"] {
			return fail(fmt.Errorf("-background, -bands, -faults and -cpus apply only to -scenario sporadic"))
		}
	case "sporadic":
		if set["horizon"] {
			return fail(fmt.Errorf("-horizon applies only to -scenario steady"))
		}
	default:
		return fail(fmt.Errorf("unknown scenario %q (want sporadic or steady)", *scenario))
	}

	// The observability layer: an obs registry backs -stats and the
	// /debug/vars snapshot; -perfetto swaps the trace-free fast path for a
	// recording trace. None of it perturbs the schedule (the fingerprint
	// in the summary line pins that).
	var reg *obs.Registry
	var execStats *exec.Stats
	if *stats || *debugAddr != "" {
		reg = obs.NewRegistry()
		execStats = exec.NewStats(reg)
		harness.SetStats(harness.NewStats(reg))
		reg.Publish("obs")
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return fail(fmt.Errorf("-debug-addr: %v", err))
		}
		fmt.Fprintf(stderr, "stress: debug endpoint on http://%s/debug/\n", addr)
	}
	var tr *trace.Trace
	if *perfetto != "" {
		tr = trace.New()
	}

	if *scenario == "sporadic" {
		p := experiments.StressParams{
			Jobs:          def.Jobs,
			Background:    *background,
			PriorityBands: *bands,
			Seed:          *seed,
			Faults:        plan,
			CPUs:          *cpus,
			Stats:         execStats,
		}
		if tr != nil {
			p.Sink = tr
		}
		if *n > 0 {
			p.Jobs = *n
		}
		err = runSporadic(stdout, p, *quiet)
	} else {
		p := experiments.SteadyStateParams{
			Entities:    steadyDef.Entities,
			HorizonTU:   *horizon,
			Utilization: steadyDef.Utilization,
			Seed:        *seed,
			Stats:       execStats,
		}
		if tr != nil {
			p.Sink = tr
		}
		if *n > 0 {
			p.Entities = *n
		}
		err = runSteady(stdout, p, *quiet)
	}
	if err != nil {
		return fail(err)
	}

	if *perfetto != "" {
		if err := writePerfetto(*perfetto, tr); err != nil {
			return fail(err)
		}
	}
	if *stats {
		fmt.Fprint(stdout, reg.Format())
	}
	return 0
}

// writePerfetto exports tr as Chrome trace-event JSON to path.
func writePerfetto(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runSporadic(w io.Writer, p experiments.StressParams, quiet bool) error {
	goroutinesBefore := runtime.NumGoroutine()
	start := time.Now()
	res, err := experiments.RunStress(p)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(w, "scenario : %d jobs over %d bands, %d background threads, seed %d\n",
			res.Jobs, p.PriorityBands, p.Background, p.Seed)
		cpus := p.CPUs
		if cpus < 1 {
			cpus = 1
		}
		fmt.Fprintf(w, "executive: cpus=%d\n", cpus)
		fmt.Fprintf(w, "completed: %d/%d jobs (%d dropped by faults), %d background activations\n",
			res.Completed, res.Jobs, res.Dropped, res.BackgroundRun)
		fmt.Fprintf(w, "virtual  : consumed %v, finished at %v of %v horizon\n",
			res.TotalConsumed, res.FinalTime, res.Horizon)
		fmt.Fprintf(w, "pool     : peak %d workers (goroutines before run: %d)\n",
			res.PeakWorkers, goroutinesBefore)
		fmt.Fprintf(w, "wall     : %v (%.0f jobs/s)\n", elapsed.Round(time.Millisecond),
			float64(res.Completed)/elapsed.Seconds())
	}
	fmt.Fprintf(w, "stress: %d jobs, peak-workers=%d fingerprint=%016x wall=%v\n",
		res.Completed, res.PeakWorkers, res.Fingerprint,
		elapsed.Round(time.Millisecond))
	if res.Completed != res.Jobs-res.Dropped {
		// The CI stress smoke relies on this: stranded jobs are a
		// scheduling bug, not a soft statistic.
		return fmt.Errorf("only %d of %d spawned jobs completed", res.Completed, res.Jobs-res.Dropped)
	}
	return nil
}

func runSteady(w io.Writer, p experiments.SteadyStateParams, quiet bool) error {
	goroutinesBefore := runtime.NumGoroutine()
	start := time.Now()
	res, err := experiments.RunPeriodicSteadyState(p)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(w, "scenario : %d periodic entities, horizon %gtu, utilization %g, seed %d\n",
			res.Entities, p.HorizonTU, p.Utilization, p.Seed)
		fmt.Fprintf(w, "released : %d activations (%d missed)\n", res.Activations, res.Missed)
		fmt.Fprintf(w, "virtual  : consumed %v, finished at %v of %v horizon\n",
			res.TotalConsumed, res.FinalTime, res.Horizon)
		fmt.Fprintf(w, "pool     : peak %d workers (goroutines before run: %d)\n",
			res.PeakWorkers, goroutinesBefore)
		fmt.Fprintf(w, "wall     : %v (%.0f activations/s)\n", elapsed.Round(time.Millisecond),
			float64(res.Activations)/elapsed.Seconds())
	}
	fmt.Fprintf(w, "steady: %d entities %d activations, peak-workers=%d fingerprint=%016x wall=%v\n",
		res.Entities, res.Activations, res.PeakWorkers, res.Fingerprint, elapsed.Round(time.Millisecond))
	if res.Activations < res.Entities {
		// Every entity must release at least once within the horizon.
		return fmt.Errorf("only %d activations for %d entities", res.Activations, res.Entities)
	}
	return nil
}
