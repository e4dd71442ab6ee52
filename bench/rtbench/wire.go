package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"

	"rtsj/internal/experiments"
)

// fabric is a set of loopback TCP connections, each served by an
// in-process experiments.ServeShard session.
type fabric struct {
	conns  []experiments.ShardConn
	client []net.Conn
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error // first failed server session; guarded by mu
}

// dialShards connects n shard sessions. With links, connection i is tapped
// by links[i] on both ends.
func dialShards(n int, links []*wireLink) (*fabric, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	defer ln.Close()
	f := &fabric{}
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			_ = f.close() // the dial error is the one to report
			return nil, fmt.Errorf("dial shard %d: %w", i, err)
		}
		f.client = append(f.client, c)
		srv, err := ln.Accept()
		if err != nil {
			_ = f.close()
			return nil, fmt.Errorf("accept shard %d: %w", i, err)
		}
		conn := experiments.ShardConn{Name: fmt.Sprintf("shard %d", i), R: c, W: c}
		var sr io.Reader = srv
		var sw io.Writer = srv
		if links != nil {
			ct, st := clientTap{c, links[i]}, serverTap{srv, links[i]}
			conn.R, conn.W, sr, sw = ct, ct, st, st
		}
		f.conns = append(f.conns, conn)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			err := experiments.ServeShard(sr, sw)
			srv.Close()
			if err != nil {
				f.mu.Lock()
				if f.err == nil {
					f.err = err
				}
				f.mu.Unlock()
			}
		}()
	}
	return f, nil
}

// close hangs up every connection, which ends each server session at EOF,
// and waits for the sessions to return.
func (f *fabric) close() error {
	for _, c := range f.client {
		c.Close()
	}
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return fmt.Errorf("shard session: %w", f.err)
	}
	return nil
}

// wireLink taps both ends of one shard connection. The protocol has one
// request in flight per connection, so the k-th request line seen by the
// client is the k-th seen by the server.
type wireLink struct {
	mu        sync.Mutex
	tr        *tracer // nil between traced passes; guarded by mu
	parent    int     // span the requests belong to; guarded by mu
	req, srv  mark    // open client and server spans; guarded by mu
	rtt       []float64
	serve     []float64
	requests  int
	reqBytes  int64
	respBytes int64
}

// use directs the link's spans to tr (nil stops recording) under parent.
func (l *wireLink) use(tr *tracer, parent int) {
	l.mu.Lock()
	l.tr, l.parent = tr, parent
	l.mu.Unlock()
}

func hasEOL(p []byte) bool { return bytes.IndexByte(p, '\n') >= 0 }

// clientTap is the coordinator's end: a request starts with its line's
// write and ends when the response line has been read.
type clientTap struct {
	c net.Conn
	l *wireLink
}

func (t clientTap) Write(p []byte) (int, error) {
	l := t.l
	l.mu.Lock()
	if l.tr != nil {
		l.requests++
		l.reqBytes += int64(len(p))
		l.req = l.tr.begin("wire.request", "wire", l.parent)
	}
	l.mu.Unlock()
	return t.c.Write(p)
}

func (t clientTap) Read(p []byte) (int, error) {
	n, err := t.c.Read(p)
	l := t.l
	l.mu.Lock()
	if l.tr != nil {
		l.respBytes += int64(n)
		if hasEOL(p[:n]) {
			l.rtt = append(l.rtt, float64(l.tr.end(l.req))/1e6)
		}
	}
	l.mu.Unlock()
	return n, err
}

// serverTap is the shard session's end: serving starts when the request
// line has been read and ends when the response line is written.
type serverTap struct {
	c net.Conn
	l *wireLink
}

func (t serverTap) Read(p []byte) (int, error) {
	n, err := t.c.Read(p)
	l := t.l
	l.mu.Lock()
	if l.tr != nil && hasEOL(p[:n]) {
		l.srv = l.tr.begin("wire.serve", "wire", l.req.i)
	}
	l.mu.Unlock()
	return n, err
}

// Write ends the serve span before the response reaches the socket, so the
// span is closed before the client can see the response and end its pass.
func (t serverTap) Write(p []byte) (int, error) {
	l := t.l
	l.mu.Lock()
	if l.tr != nil && hasEOL(p) {
		l.serve = append(l.serve, float64(l.tr.end(l.srv))/1e6)
	}
	l.mu.Unlock()
	return t.c.Write(p)
}
