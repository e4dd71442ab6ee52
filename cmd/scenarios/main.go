// Command scenarios regenerates the paper's worked examples and the
// robustness overload family.
//
// The default family ("figures") renders the Table 1 task set under the
// three firing scenarios of Figures 2-4 as ASCII temporal diagrams: the
// framework execution (what the figures depict) and the ideal
// literature-policy simulation the paper contrasts in the text.
//
// The "overload" family runs the deterministic overload scenarios
// (internal/experiments.RunOverload): miss-storm, transient and
// saturation. It exits non-zero if any invariant is violated or if the
// miss-storm's hard periodic set misses a deadline — the graceful-
// degradation property CI smokes with a 10k-event burst.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rtsj/internal/experiments"
	"rtsj/internal/faults"
	"rtsj/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the selected family and
// returns the exit status — 0 on success, 2 for a malformed command line
// (unknown flag or family, bad flag value), 1 for every other failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	fs.SetOutput(stderr)
	family := fs.String("family", "figures", "scenario family: figures | overload")
	scenario := fs.String("scenario", "", "scenario to run: figures 1-3, overload miss-storm|transient|saturation; empty for all")
	ideal := fs.Bool("ideal", true, "figures: also show the ideal (literature) polling server schedule")
	workers := fs.Int("workers", 0, "harness worker pool size (0: $RTSJ_WORKERS or GOMAXPROCS)")
	events := fs.Int("n", 0, "overload: approximate event count (0: default)")
	seed := fs.Int64("seed", 0, "overload: workload seed (0: default)")
	faultsFlag := fs.String("faults", "", "overload: extra fault plan (e.g. 'seed=1 overrun=0.3:0.5'); 'off' or empty for none")
	quiet := fs.Bool("quiet", false, "overload: one summary line per scenario")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "scenarios: -workers must be >= 0 (got %d)\n", *workers)
		return 2
	}
	harness.SetWorkers(*workers)

	switch *family {
	case "figures":
		n := 0
		if *scenario != "" {
			if _, err := fmt.Sscanf(*scenario, "%d", &n); err != nil || n < 1 || n > 3 {
				fmt.Fprintf(stderr, "scenarios: figures scenario must be 1-3 (got %q)\n", *scenario)
				return 2
			}
		}
		return runFigures(stdout, stderr, n, *ideal)
	case "overload":
		return runOverload(stdout, stderr, *scenario, *events, *seed, *faultsFlag, *quiet)
	default:
		fmt.Fprintf(stderr, "scenarios: unknown family %q (want figures or overload)\n", *family)
		return 2
	}
}

func runFigures(stdout, stderr io.Writer, n int, ideal bool) int {
	nums := []int{1, 2, 3}
	if n != 0 {
		nums = []int{n}
	}
	fmt.Fprintln(stdout, "Task set (Table 1): PS(prio hi, C=3, T=6), tau1(med, C=2, T=6), tau2(lo, C=1, T=6)")
	fmt.Fprintln(stdout, "Handlers: h1 cost 2, h2 cost 2 (scenario 3: declared 1, actual 2)")
	fmt.Fprintln(stdout)
	figs, err := experiments.RunFigures(nums...)
	if err != nil {
		fmt.Fprintf(stderr, "scenarios: %v\n", err)
		return 1
	}
	for i, num := range nums {
		fig := figs[i]
		fmt.Fprintf(stdout, "=== Scenario %d (Figure %d) ===\n", num, num+1)
		fmt.Fprintf(stdout, "e1 fired at %v, e2 at %v — %s\n\n", fig.Scenario.Fire1, fig.Scenario.Fire2, fig.Scenario.Caption)
		fmt.Fprintln(stdout, "Framework execution:")
		fmt.Fprintln(stdout, fig.ExecGantt)
		if ideal {
			fmt.Fprintln(stdout, "Ideal polling server (RTSS simulation):")
			fmt.Fprintln(stdout, fig.IdealGantt)
		}
		for _, e := range fig.Events {
			fmt.Fprintln(stdout, "  "+e)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func runOverload(stdout, stderr io.Writer, scenario string, events int, seed int64, faultsFlag string, quiet bool) int {
	plan, err := faults.Parse(faultsFlag)
	if err != nil {
		fmt.Fprintf(stderr, "scenarios: -faults: %v\n", err)
		return 2
	}
	names := experiments.OverloadScenarios()
	if scenario != "" {
		names = []string{scenario}
	}
	failed := false
	for _, name := range names {
		p := experiments.DefaultOverloadParams(name)
		p.Events = events
		p.Seed = seed
		p.Faults = plan
		r, err := experiments.RunOverload(p)
		if err != nil {
			fmt.Fprintf(stderr, "scenarios: %s: %v\n", name, err)
			return 1
		}
		if quiet {
			fmt.Fprintf(stdout, "%-11s events=%d served=%d interrupted=%d shed=%d pending=%d periodic=%d/%d-missed floor=%v fp=%#x\n",
				name, r.Events, r.Served, r.Interrupted, r.Shed, r.Pending,
				r.PeriodicReleases, r.PeriodicMisses, r.CapacityFloor, r.Fingerprint)
		} else {
			fmt.Fprintf(stdout, "=== Overload scenario %q ===\n", name)
			fmt.Fprintf(stdout, "aperiodics: %d generated, %d released, %d served, %d interrupted, %d shed, %d pending at horizon\n",
				r.Events, r.Released, r.Served, r.Interrupted, r.Shed, r.Pending)
			fmt.Fprintf(stdout, "hard periodics: %d releases, %d deadline misses\n", r.PeriodicReleases, r.PeriodicMisses)
			fmt.Fprintf(stdout, "capacity floor: %v  final time: %v  fingerprint: %#x\n", r.CapacityFloor, r.FinalTime, r.Fingerprint)
			fmt.Fprintln(stdout)
		}
		// Graceful degradation is the contract: invariants hold and the
		// hard periodic set never misses while the server sheds.
		for _, v := range r.Violations {
			fmt.Fprintf(stderr, "scenarios: %s: INVARIANT: %s\n", name, v)
			failed = true
		}
		if r.PeriodicMisses > 0 {
			fmt.Fprintf(stderr, "scenarios: %s: %d hard periodic deadline misses\n", name, r.PeriodicMisses)
			failed = true
		}
		if name == experiments.OverloadMissStorm && r.Shed == 0 {
			fmt.Fprintf(stderr, "scenarios: %s: shed nothing (storm not overloading)\n", name)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
