// Command tables regenerates the paper's measurement tables (Tables 2-5):
// the six generated system sets, each simulated (ideal policies on RTSS)
// and executed (Task Server Framework on the RTSJ emulation), reporting
// AART, AIR and ASR side by side with the paper's values.
//
// With -campaign it instead runs a utilization-sweep schedulability
// campaign over an index-addressable system population — in-process, across
// -shards subprocess workers, or across -shard-addr TCP workers — and
// prints the curve. Every execution mode prints byte-identical output for
// the same spec.
//
// Usage:
//
//	tables [-table 2|3|4|5|all]
//	tables -campaign [-points 0.5,1,2] [-systems N] [-seed S] [-policy ds]
//	       [-shards N -shard-bin ./shard | -shard-addr host:port,...]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rtsj/internal/experiments"
	"rtsj/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, prints the selected tables
// (or the campaign curve) and returns the exit status — 0 on success, 2
// for a malformed command line (unknown flag, bad flag value), 1 for every
// other error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "table to regenerate: 2, 3, 4, 5 or all")
	matrix := fs.Bool("matrix", false, "also run the extension experiment: every policy on every set")
	workers := fs.Int("workers", 0, "harness worker pool size (0: $RTSJ_WORKERS or GOMAXPROCS)")
	cf := registerCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "tables: -workers must be >= 0 (got %d)\n", *workers)
		return 2
	}
	harness.SetWorkers(*workers)

	if *cf.run {
		return runCampaign(cf, *workers, stdout, stderr)
	}

	ids := experiments.TableIDs
	if *table != "all" {
		ids = []string{*table}
	}
	tabs, err := experiments.RunTables(ids)
	if err != nil {
		fmt.Fprintf(stderr, "tables: %v\n", err)
		return 1
	}
	for _, t := range tabs {
		fmt.Fprintln(stdout, t.Format())
	}
	if *matrix {
		m, err := experiments.RunPolicyMatrix()
		if err != nil {
			fmt.Fprintf(stderr, "tables: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, m.Format())
	}
	return 0
}
