package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"rtsj/internal/experiments"
	"rtsj/internal/harness"
)

// runCmd runs the command in-process on the given stdin and returns its
// exit status and output streams.
func runCmd(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// TestStdinSession serves one stdin session of two range requests and
// checks each response echoes its range and carries exactly the partial
// RunCampaignRange computes in-process.
func TestStdinSession(t *testing.T) {
	defer harness.SetWorkers(0)
	spec := experiments.DefaultCampaignSpec()
	spec.Points = []float64{1, 3}
	spec.Systems = 60
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	ranges := []experiments.ShardRequest{
		{V: experiments.ShardProtocolVersion, Spec: spec, Point: 1, Lo: 5, Hi: 40},
		{V: experiments.ShardProtocolVersion, Spec: spec, Point: 0, Lo: 0, Hi: 60},
	}
	for _, req := range ranges {
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	code, stdout, stderr := runCmd(in.String(), "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	dec := json.NewDecoder(strings.NewReader(stdout))
	for _, req := range ranges {
		var resp experiments.ShardResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("decode response to %+v: %v", req, err)
		}
		if resp.Error != "" || resp.Partial == nil {
			t.Fatalf("range [%d, %d): error response %q", req.Lo, req.Hi, resp.Error)
		}
		if resp.Point != req.Point || resp.Lo != req.Lo || resp.Hi != req.Hi {
			t.Fatalf("response echoes point %d [%d, %d), want %d [%d, %d)",
				resp.Point, resp.Lo, resp.Hi, req.Point, req.Lo, req.Hi)
		}
		want, err := experiments.RunCampaignRange(spec, req.Point, req.Lo, req.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if *resp.Partial != want {
			t.Fatalf("range [%d, %d): partial %+v, want %+v", req.Lo, req.Hi, *resp.Partial, want)
		}
	}
	if dec.More() {
		t.Fatal("more responses than requests")
	}
}

// TestMalformedRequest checks a line that is not a request is answered
// with an error response and ends the session with exit status 1.
func TestMalformedRequest(t *testing.T) {
	code, stdout, stderr := runCmd("{not json\n")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	var resp experiments.ShardResponse
	if err := json.Unmarshal([]byte(stdout), &resp); err != nil {
		t.Fatalf("stdout %q is not a response line: %v", stdout, err)
	}
	if !strings.Contains(resp.Error, "malformed request") || resp.Partial != nil {
		t.Fatalf("response %+v, want a malformed-request error", resp)
	}
	if !strings.Contains(stderr, "malformed request") {
		t.Fatalf("stderr %q does not mention the malformed request", stderr)
	}
}

func TestRejectsBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		msg  string // substring of stderr
	}{
		{"unknown flag", []string{"-kernel", "channel"}, "flag provided but not defined: -kernel"},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be >= 0 (got -1)"},
		{"bad workers", []string{"-workers", "two"}, `invalid value "two" for flag -workers`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd("", tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if !strings.Contains(stderr, tc.msg) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.msg)
			}
			if stdout != "" {
				t.Errorf("a rejected command line printed %q", stdout)
			}
		})
	}
}

// listenShard serves shard sessions under b on a loopback listener until
// the test ends, and returns the listener's address.
func listenShard(t *testing.T, b bounds) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		serve(ln, b, nil, log.New(io.Discard, "", 0))
		close(done)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// dialShard connects to addr; the connection closes when the test ends.
func dialShard(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// emptyRequest is a request line for the empty range [0, 0): answered
// at once, with nothing to compute.
func emptyRequest(t *testing.T) []byte {
	t.Helper()
	line, err := json.Marshal(experiments.ShardRequest{V: experiments.ShardProtocolVersion, Spec: experiments.DefaultCampaignSpec()})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// TestListenSessionCap holds the only session of a one-session shard
// open, then checks that a second connection is closed without an answer.
func TestListenSessionCap(t *testing.T) {
	addr := listenShard(t, bounds{sessions: 1, read: time.Minute, write: time.Minute})
	first := dialShard(t, addr)
	if _, err := first.Write(emptyRequest(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(first).ReadString('\n'); err != nil {
		t.Fatalf("first session: %v", err)
	}
	second := dialShard(t, addr)
	second.SetDeadline(time.Now().Add(10 * time.Second))
	second.Write(emptyRequest(t)) // may fail once the shard has closed it
	if line, err := bufio.NewReader(second).ReadString('\n'); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("second session answered %q (%v), want it closed", line, err)
	}
}

// TestListenIdleBetweenRequests checks the read bound does not cover the
// wait between requests: a peer that waits three read bounds before its
// first request and again before its second is answered both times, as a
// coordinator's session is after waiting on its other shards. Each
// request goes out in two writes, so its bound is armed and must be
// cleared again.
func TestListenIdleBetweenRequests(t *testing.T) {
	const read = 100 * time.Millisecond
	addr := listenShard(t, bounds{sessions: 1, read: read, write: time.Minute})
	c := dialShard(t, addr)
	c.SetDeadline(time.Now().Add(10 * time.Second))
	resp := bufio.NewReader(c)
	req := emptyRequest(t)
	for i := range 2 {
		time.Sleep(3 * read)
		if _, err := c.Write(req[:10]); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		time.Sleep(read / 10)
		if _, err := c.Write(req[10:]); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		line, err := resp.ReadString('\n')
		if err != nil || strings.Contains(line, "error") {
			t.Fatalf("request %d after an idle wait: %q (%v), want an answer", i, line, err)
		}
	}
}

// TestListenStalledRequest checks a session whose peer stops partway
// through a request ends after the read bound, counted from the
// request's first byte. The peer's writes are half a bound apart, and the
// stalled request is the first, follows a whole one, or begins in the
// same write that ends the request before it.
func TestListenStalledRequest(t *testing.T) {
	const read = 100 * time.Millisecond
	whole := emptyRequest(t)
	for _, tc := range []struct {
		name   string
		writes [][]byte
	}{
		{"first request", [][]byte{whole[:10]}},
		{"after a whole one", [][]byte{whole, whole[:10]}},
		{"begun with the previous end", [][]byte{whole[:10], append(bytes.Clone(whole[10:]), whole[:10]...)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := listenShard(t, bounds{sessions: 1, read: read, write: time.Minute})
			c := dialShard(t, addr)
			c.SetDeadline(time.Now().Add(10 * time.Second))
			var last time.Time
			for i, w := range tc.writes {
				if i > 0 {
					time.Sleep(read / 2)
				}
				last = time.Now()
				if _, err := c.Write(w); err != nil {
					t.Fatal(err)
				}
			}
			out, err := io.ReadAll(c) // any answer, the error response, then the close
			if err != nil {
				t.Fatalf("session did not end: %v (read %q)", err, out)
			}
			if waited := time.Since(last); waited < read {
				t.Fatalf("session ended %v after the stalled request began, before the %v read bound", waited, read)
			}
			if !strings.Contains(string(out), "timeout") {
				t.Fatalf("session ended with %q, want a timeout error response", out)
			}
		})
	}
}

// TestSessionStalledReader checks a peer that sends a request but never
// reads the response does not hold its session: the response write misses
// the write bound and the session ends. net.Pipe has no buffer, so the
// first response write stalls.
func TestSessionStalledReader(t *testing.T) {
	srv, peer := net.Pipe()
	defer peer.Close()
	ended := make(chan struct{})
	go func() {
		session(srv, bounds{sessions: 1, read: time.Minute, write: 100 * time.Millisecond}, nil, log.New(io.Discard, "", 0))
		close(ended)
	}()
	if _, err := peer.Write(emptyRequest(t)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("the shard never ended the session of a peer that reads nothing")
	}
}
