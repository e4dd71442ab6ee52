// Command shard is the campaign fabric's worker process: it serves
// newline-delimited JSON range requests (experiments.ShardRequest) and
// answers each with the partial metrics of that system-index range
// (experiments.ShardResponse).
//
// By default it serves a single session on stdin/stdout — the subprocess
// mode `rtsj-tables -campaign -shards N -shard-bin` uses. With -listen it
// accepts TCP connections instead and serves one session per connection,
// so shards can run on other machines:
//
//	shard -listen :7700 &
//	tables -campaign -shard-addr host1:7700,host2:7700
//
// -workers bounds the worker pool of this process (default $RTSJ_WORKERS,
// else GOMAXPROCS); the coordinator's own -workers value does not travel
// over the wire.
//
// -debug-addr starts an HTTP debug endpoint alongside either mode:
// /debug/pprof for profiles and /debug/vars for the live obs snapshot
// ("obs": request/system/error counters, in-flight gauge, request-latency
// histogram, harness pool gauges) — the fleet-health scrape surface of a
// long-lived shard.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"

	"rtsj/internal/experiments"
	"rtsj/internal/harness"
	"rtsj/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it parses args and serves shard sessions —
// one on stdin/stdout, or one per TCP connection with -listen — and
// returns the exit status: 0 when the stdin session ends cleanly, 2 for a
// malformed command line (unknown flag, bad flag value), 1 for every
// other error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "", "serve TCP connections on this address instead of stdin/stdout")
	workers := fs.Int("workers", 0, "worker pool size for this shard (default $RTSJ_WORKERS, else GOMAXPROCS)")
	debugAddr := fs.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "shard: -workers must be >= 0 (got %d)\n", *workers)
		return 2
	}
	if *workers > 0 {
		harness.SetWorkers(*workers)
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "shard:", err)
		return 1
	}
	logger := log.New(stderr, "", log.LstdFlags)

	// The obs registry exists regardless of -debug-addr (the per-request
	// accounting is cheap); the flag only decides whether it is served.
	reg := obs.NewRegistry()
	stats := experiments.NewShardStats(reg)
	harness.SetStats(harness.NewStats(reg))
	reg.Publish("obs")
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return fail(fmt.Errorf("-debug-addr: %w", err))
		}
		logger.Printf("shard: debug endpoint on http://%s/debug/", addr)
	}

	if *listen == "" {
		if err := experiments.ServeShardStats(stdin, stdout, stats); err != nil {
			return fail(err)
		}
		return 0
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(err)
	}
	logger.Printf("shard: listening on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			return fail(err)
		}
		go func(c net.Conn) {
			defer c.Close()
			if err := experiments.ServeShardStats(c, c, stats); err != nil {
				logger.Printf("shard: %s: %v", c.RemoteAddr(), err)
			}
		}(conn)
	}
}
