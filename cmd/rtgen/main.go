// Command rtgen is the random real-time system generator of the paper's
// Section 6.1 (fr.umlv.randomGenerator): it emits generated systems in the
// rtss spec format.
//
// Usage:
//
//	rtgen [-density 2] [-cost 3] [-sd 0] [-capacity 4] [-period 6]
//	      [-n 10] [-seed 1983] [-periods 10] [-server ps] [-poisson]
//	      [-index 0]
//
// With -n > 1, -index selects which generated system to print (or use
// -all to print them all separated by blank lines).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rtsj/internal/gen"
	"rtsj/internal/sim"
	"rtsj/internal/spec"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, generates the systems and
// prints the selected ones, returning the exit status — 0 on success, 2
// for a malformed command line (unknown flag, bad flag value). The
// generation parameters must pass gen.Params.Validate, the check every
// campaign sweep point passes too.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	density := fs.Float64("density", 2, "average aperiodic events per server period")
	cost := fs.Float64("cost", 3, "average event cost (tu)")
	sd := fs.Float64("sd", 0, "cost standard deviation (tu)")
	capacity := fs.Float64("capacity", 4, "server capacity (tu)")
	period := fs.Float64("period", 6, "server period (tu)")
	n := fs.Int("n", 10, "number of systems to generate")
	seed := fs.Int64("seed", 1983, "random seed")
	periods := fs.Int("periods", 10, "observation horizon in server periods")
	server := fs.String("server", "ps-lim", "server policy: ps, ds, ps-lim, ds-lim, ss, bg")
	poisson := fs.Bool("poisson", false, "use Poisson arrivals instead of per-period")
	index := fs.Int("index", 0, "which generated system to print")
	all := fs.Bool("all", false, "print every generated system")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "rtgen: "+format+"\n", a...)
		return 2
	}

	p := gen.Params{
		TaskDensity:    *density,
		AverageCost:    *cost,
		StdDeviation:   *sd,
		ServerCapacity: *capacity,
		ServerPeriod:   *period,
		NbGeneration:   *n,
		Seed:           *seed,
		HorizonPeriods: *periods,
	}
	if *poisson {
		p.Arrivals = gen.PoissonArrivals
	}
	if err := p.Validate(); err != nil {
		return usage("%v", err)
	}
	policies := map[string]sim.ServerPolicy{
		"bg": sim.NoServer, "ps": sim.PollingServer, "ds": sim.DeferrableServer,
		"ps-lim": sim.LimitedPollingServer, "ds-lim": sim.LimitedDeferrableServer,
		"ss": sim.SporadicServer,
	}
	pol, ok := policies[*server]
	if !ok {
		return usage("unknown server policy %q", *server)
	}
	if *n <= 0 {
		return usage("-n must be positive (got %d)", *n)
	}
	if !*all && (*index < 0 || *index >= *n) {
		return usage("index %d out of range (0..%d)", *index, *n-1)
	}

	// Systems are drawn one at a time from the set's sequential stream, so
	// -index stops after the system it prints and -all holds one system at
	// a time: -n costs memory only as large as one system.
	for i, base := range gen.Systems(p) {
		if !*all && i != *index {
			continue
		}
		sys := gen.WithServer(base, p, pol, 100)
		f := &spec.File{System: sys, Horizon: p.Horizon()}
		fmt.Fprintf(stdout, "# rtgen system %d/%d: density=%g cost=%g sd=%g seed=%d\n",
			i+1, *n, *density, *cost, *sd, *seed)
		fmt.Fprint(stdout, spec.Format(f))
		if !*all {
			break
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
