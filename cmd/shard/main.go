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
// A listening shard serves at most maxSessions connections at once and
// closes any beyond that as soon as it accepts them. Once a request's
// first byte arrives, the rest of it must arrive within readTimeout, and
// each response must be taken within writeTimeout; a session that misses
// either ends, so a peer that stalls mid-request or stops reading cannot
// hold a session open. The wait between requests is not bounded: a
// coordinator's sessions sit idle while it drives other shards, for as
// long as its campaign takes. A peer that vanished is still dropped, by
// TCP keep-alive.
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
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

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
	return fail(serve(ln, bounds{maxSessions, readTimeout, writeTimeout}, stats, logger))
}

// The bounds of -listen: once a request's first byte arrives, a peer
// has readTimeout to send the rest of it, and writeTimeout to take each
// response; maxSessions sessions are served at once. A coordinator sends
// each request (about 200 bytes for the stock sweep) in one write and
// reads each answer at once, so on loopback a request arrives in one read
// and a response write returns within a millisecond; a minute lets the
// largest request a session accepts (1 MiB) arrive at 17 KB/s. A
// coordinator holds one session per address it lists; 64 idle warm
// sessions hold about 3 MB per worker.
const (
	maxSessions  = 64
	readTimeout  = time.Minute
	writeTimeout = time.Minute
)

// bounds are the limits serve holds every connection to.
type bounds struct {
	sessions    int
	read, write time.Duration
}

// serve accepts connections on ln until it fails, serving one shard
// session per connection under b: a connection beyond b.sessions open
// sessions is closed at once.
func serve(ln net.Listener, b bounds, stats *experiments.ShardStats, logger *log.Logger) error {
	slots := make(chan struct{}, b.sessions)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		select {
		case slots <- struct{}{}:
		default:
			logger.Printf("shard: %s: refused, %d sessions already open", conn.RemoteAddr(), b.sessions)
			conn.Close()
			continue
		}
		go func() {
			defer func() { <-slots }()
			session(conn, b, stats, logger)
		}()
	}
}

// session serves one shard session on c, held to b's deadlines through a
// deadlineConn, and closes c when the session ends.
func session(c net.Conn, b bounds, stats *experiments.ShardStats, logger *log.Logger) {
	defer c.Close()
	dc := &deadlineConn{Conn: c, b: b}
	if err := experiments.ServeShardStats(dc, dc, stats); err != nil {
		logger.Printf("shard: %s: %v", c.RemoteAddr(), err)
	}
}

// deadlineConn holds a session's connection to its per-request bounds.
// The read deadline is armed when a request's first byte is read and
// cleared once every request read so far has ended in its newline, so it
// bounds how long one request takes to arrive, never the wait before it.
// Every write gets its own deadline.
type deadlineConn struct {
	net.Conn
	b       bounds
	partial bool // a request has begun to arrive and its newline has not
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n == 0 {
		return n, err
	}
	switch end := bytes.LastIndexByte(p[:n], '\n'); {
	case end == n-1:
		c.partial = false
		c.SetReadDeadline(time.Time{})
	case end >= 0 || !c.partial: // a new request began in p
		c.partial = true
		c.SetReadDeadline(time.Now().Add(c.b.read))
	}
	return n, err
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	c.SetWriteDeadline(time.Now().Add(c.b.write))
	return c.Conn.Write(p)
}
