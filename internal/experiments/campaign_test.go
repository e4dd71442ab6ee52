package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"rtsj/internal/gen"
	"rtsj/internal/harness"
	"rtsj/internal/metrics"
	"rtsj/internal/sim"
)

func testCampaignSpec() CampaignSpec {
	s := DefaultCampaignSpec()
	s.Points = []float64{0.5, 2, 3.5}
	s.Systems = 120
	return s
}

// TestCampaignStreamingMatchesRetained pins the streaming reducer against
// the obvious retained implementation: a serial loop that generates every
// system through the reference path (gen.SystemAt, sim.Run, SimEvents),
// keeps its events and folds them. The curves must be bit-identical under
// every server policy — the reducer and its per-worker reusable state
// change memory behaviour, never results.
func TestCampaignStreamingMatchesRetained(t *testing.T) {
	for pol := sim.NoServer; pol <= sim.SlackStealer; pol++ {
		s := testCampaignSpec()
		s.Policy = pol
		for point := range s.Points {
			var want metrics.Partial
			p := s.pointParams(point)
			horizon := p.Horizon()
			for i := 0; i < s.Systems; i++ {
				sys := gen.WithServer(gen.SystemAt(p, i), p, s.Policy, 100)
				r, err := RunSimulationMetrics(sys, horizon)
				if err != nil {
					t.Fatal(err)
				}
				want.AddSystem(SimEvents(r))
			}
			got, err := RunCampaignRange(s, point, 0, s.Systems)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v point %d: streaming partial %+v, retained %+v", pol, point, got, want)
			}
		}
	}
}

// TestCampaignWorkerCountInvariance checks the whole curve is identical for
// any worker count, byte for byte through Format.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	s := testCampaignSpec()
	defer harness.SetWorkers(0)
	var want string
	for _, workers := range []int{1, 2, 4, 0} {
		harness.SetWorkers(workers)
		c, err := RunCampaign(s)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == "" {
			want = c.Format()
			continue
		}
		if got := c.Format(); got != want {
			t.Fatalf("workers=%d: curve differs from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// pipeShards starts n in-memory ServeShard workers and returns their
// connections. Closing a connection's W ends that worker's session.
func pipeShards(t *testing.T, n int) []ShardConn {
	t.Helper()
	conns := make([]ShardConn, n)
	for i := range conns {
		reqR, reqW := io.Pipe()
		respR, respW := io.Pipe()
		go func() {
			err := ServeShard(reqR, respW)
			respW.CloseWithError(err)
		}()
		conns[i] = ShardConn{R: respR, W: reqW}
	}
	return conns
}

func closeShards(conns []ShardConn) {
	for _, c := range conns {
		c.W.(io.Closer).Close()
	}
}

// TestCampaignShardDifferential is the fabric's core differential: the same
// spec run in-process, over 1 shard and over 4 shards (with a deliberately
// odd batch size) must format to identical bytes.
func TestCampaignShardDifferential(t *testing.T) {
	s := testCampaignSpec()
	inproc, err := RunCampaign(s)
	if err != nil {
		t.Fatal(err)
	}
	want := inproc.Format()
	for _, tc := range []struct {
		shards, batch int
	}{
		{1, 0},
		{4, 0},
		{4, 7}, // ragged ranges: last chunk of each point is short
	} {
		conns := pipeShards(t, tc.shards)
		c, err := RunCampaignSharded(s, conns, tc.batch)
		closeShards(conns)
		if err != nil {
			t.Fatalf("%d shards (batch %d): %v", tc.shards, tc.batch, err)
		}
		if got := c.Format(); got != want {
			t.Fatalf("%d shards (batch %d): curve differs from in-process:\n%s\nvs\n%s",
				tc.shards, tc.batch, got, want)
		}
	}
}

// TestServeShardMalformedRequest checks a worker rejects garbage input with
// an error response and a non-nil session error.
func TestServeShardMalformedRequest(t *testing.T) {
	var out bytes.Buffer
	err := ServeShard(strings.NewReader("{not json\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "malformed request") {
		t.Fatalf("err = %v, want malformed request", err)
	}
	var resp ShardResponse
	if derr := json.NewDecoder(&out).Decode(&resp); derr != nil {
		t.Fatalf("no error response emitted: %v", derr)
	}
	if resp.Error == "" {
		t.Fatal("error response carries no error")
	}
}

// TestServeShardOverlongLine sends a well-formed request, then a 4 MiB
// line holding a JSON string that never ends: the worker must answer the
// first request, answer the long line with an error response, and end the
// session without buffering the whole line.
func TestServeShardOverlongLine(t *testing.T) {
	req, _ := json.Marshal(ShardRequest{V: ShardProtocolVersion, Spec: testCampaignSpec(), Hi: 1})
	in := append(append(req, '\n'), `{"spec":"`...)
	in = append(in, bytes.Repeat([]byte{'a'}, 4<<20)...)
	rd := bytes.NewReader(in)
	var out bytes.Buffer
	err := ServeShard(rd, &out)
	if err == nil || !strings.Contains(err.Error(), "longer than") {
		t.Fatalf("err = %v, want an over-long request error", err)
	}
	if read := len(in) - rd.Len(); read > maxShardRequestBytes+64<<10 {
		t.Errorf("worker read %d bytes of the long line, cap %d", read, maxShardRequestBytes)
	}
	dec := json.NewDecoder(&out)
	var first, second ShardResponse
	if derr := dec.Decode(&first); derr != nil || first.Error != "" || first.Partial == nil {
		t.Fatalf("first response %+v (%v), want a partial", first, derr)
	}
	if derr := dec.Decode(&second); derr != nil || !strings.Contains(second.Error, "longer than") {
		t.Fatalf("second response %+v (%v), want an over-long request error", second, derr)
	}
}

// TestServeShardVersionMismatch checks an unknown protocol version is
// refused rather than guessed around.
func TestServeShardVersionMismatch(t *testing.T) {
	req, _ := json.Marshal(ShardRequest{V: ShardProtocolVersion + 1, Spec: testCampaignSpec(), Hi: 1})
	var out bytes.Buffer
	err := ServeShard(bytes.NewReader(append(req, '\n')), &out)
	if err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Fatalf("err = %v, want protocol version mismatch", err)
	}
}

// TestServeShardInvalidSpec checks an invalid spec arriving over the wire
// fails the range with a clear error instead of computing nonsense.
func TestServeShardInvalidSpec(t *testing.T) {
	s := testCampaignSpec()
	s.Systems = -5
	req, _ := json.Marshal(ShardRequest{V: ShardProtocolVersion, Spec: s})
	var out bytes.Buffer
	err := ServeShard(bytes.NewReader(append(req, '\n')), &out)
	if err == nil || !strings.Contains(err.Error(), "systems per point must be positive") {
		t.Fatalf("err = %v, want spec validation error", err)
	}
}

// TestServeShardOversizedSpec sends a well-formed request whose one sweep
// point asks for 1e15 events per system: the worker must answer with an
// error response, not size a generator buffer for it and crash.
func TestServeShardOversizedSpec(t *testing.T) {
	s := testCampaignSpec()
	s.Points = []float64{1e15}
	req, _ := json.Marshal(ShardRequest{V: ShardProtocolVersion, Spec: s, Lo: 0, Hi: 1})
	var out bytes.Buffer
	err := ServeShard(bytes.NewReader(append(req, '\n')), &out)
	if err == nil || !strings.Contains(err.Error(), "events per system") {
		t.Fatalf("err = %v, want the events-per-system bound", err)
	}
	var resp ShardResponse
	if derr := json.NewDecoder(&out).Decode(&resp); derr != nil {
		t.Fatalf("no error response emitted: %v", derr)
	}
	if resp.Error == "" || resp.Partial != nil {
		t.Fatalf("response %+v, want an error and no partial", resp)
	}
}

// TestServeShardRangeCap asks for one system more than a request may:
// the worker answers with an error response, computes nothing and ends
// the session. (TestShardedBatchCapped has a request at the cap served.)
func TestServeShardRangeCap(t *testing.T) {
	s := testCampaignSpec()
	s.Systems = maxShardRangeSystems + 1
	req, _ := json.Marshal(ShardRequest{V: ShardProtocolVersion, Spec: s, Lo: 0, Hi: maxShardRangeSystems + 1})
	var out bytes.Buffer
	err := ServeShard(bytes.NewReader(append(req, '\n')), &out)
	if err == nil || !strings.Contains(err.Error(), "more than the 65536 one request may") {
		t.Fatalf("err = %v, want the range cap", err)
	}
	var resp ShardResponse
	if derr := json.NewDecoder(&out).Decode(&resp); derr != nil {
		t.Fatalf("no error response emitted: %v", derr)
	}
	if resp.Error == "" || resp.Partial != nil || resp.Hi != maxShardRangeSystems+1 {
		t.Fatalf("response %+v, want an error for the echoed range and no partial", resp)
	}
}

// TestShardedBatchCapped runs a sharded campaign with a batch beyond the
// range cap: the coordinator deals chunks the worker accepts, and the
// curve equals the in-process one.
func TestShardedBatchCapped(t *testing.T) {
	s := testCampaignSpec()
	s.Points = s.Points[:1]
	s.Systems = maxShardRangeSystems + 10
	want, err := RunCampaign(s)
	if err != nil {
		t.Fatal(err)
	}
	conns := pipeShards(t, 1)
	defer closeShards(conns)
	got, err := RunCampaignSharded(s, conns, 10*maxShardRangeSystems)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format() != want.Format() {
		t.Errorf("sharded curve\n%s\nin-process\n%s", got.Format(), want.Format())
	}
}

// fakeShard scripts a coordinator-side failure: it answers every request
// with a fixed mutation of the honest response.
func fakeShard(t *testing.T, mutate func(*ShardResponse)) ShardConn {
	t.Helper()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	go func() {
		dec := json.NewDecoder(reqR)
		enc := json.NewEncoder(respW)
		for {
			var req ShardRequest
			if err := dec.Decode(&req); err != nil {
				respW.CloseWithError(err)
				return
			}
			part, err := RunCampaignRange(req.Spec, req.Point, req.Lo, req.Hi)
			if err != nil {
				respW.CloseWithError(err)
				return
			}
			resp := ShardResponse{V: ShardProtocolVersion, Point: req.Point, Lo: req.Lo, Hi: req.Hi, Partial: &part}
			mutate(&resp)
			if err := enc.Encode(resp); err != nil {
				respW.CloseWithError(err)
				return
			}
		}
	}()
	return ShardConn{Name: "fake", R: respR, W: reqW}
}

// TestShardedRejectsBadResponses checks the coordinator validates every
// response before merging: wrong coordinates, missing partials, partial
// coverage and truncated sessions all fail with clear errors instead of
// corrupting the curve.
func TestShardedRejectsBadResponses(t *testing.T) {
	s := testCampaignSpec()
	s.Points = s.Points[:1]
	s.Systems = 40
	cases := []struct {
		name   string
		mutate func(*ShardResponse)
		want   string
	}{
		{"wrong range", func(r *ShardResponse) { r.Lo++ }, "want point"},
		{"missing partial", func(r *ShardResponse) { r.Partial = nil }, "carries no partial"},
		{"short coverage", func(r *ShardResponse) { r.Partial.Systems-- }, "covers"},
		{"worker error", func(r *ShardResponse) { r.Partial, r.Error = nil, "disk on fire" }, "disk on fire"},
		{"stale version", func(r *ShardResponse) { r.V = 99 }, "protocol version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := fakeShard(t, tc.mutate)
			_, err := RunCampaignSharded(s, []ShardConn{conn}, 0)
			conn.W.(io.Closer).Close()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestShardedTruncatedSession checks a shard dying mid-campaign surfaces as
// a read error, not a hang or a short merge.
func TestShardedTruncatedSession(t *testing.T) {
	s := testCampaignSpec()
	s.Points = s.Points[:1]
	s.Systems = 40
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	go func() {
		// Swallow one request, then die without answering.
		dec := json.NewDecoder(reqR)
		var req ShardRequest
		_ = dec.Decode(&req)
		respW.Close()
		io.Copy(io.Discard, reqR)
	}()
	_, err := RunCampaignSharded(s, []ShardConn{{Name: "dying", R: respR, W: reqW}}, 0)
	reqW.Close()
	if err == nil || !strings.Contains(err.Error(), "read response") {
		t.Fatalf("err = %v, want read response failure", err)
	}
}

// TestCurveFormats pins the machine-readable renderings: CSV has the
// stable header and one row per sweep point, and JSON round-trips the
// curve losslessly (the partials are integer tallies, so equality is
// exact).
func TestCurveFormats(t *testing.T) {
	s := testCampaignSpec()
	c, err := RunCampaign(s)
	if err != nil {
		t.Fatal(err)
	}

	csv := c.FormatCSV()
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	const header = "density,load,schedulable,served,mean_resp_tu,max_resp_tu,systems,events,served_events,interrupted,shed,resp_ticks"
	if lines[0] != header {
		t.Errorf("CSV header = %q, want %q", lines[0], header)
	}
	if len(lines) != 1+len(c.Points) {
		t.Fatalf("CSV has %d data rows, want %d:\n%s", len(lines)-1, len(c.Points), csv)
	}
	for i, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != 12 {
			t.Errorf("CSV row %d has %d columns, want 12: %q", i, len(cols), line)
		}
		if !strings.HasPrefix(line, fmt.Sprintf("%g,", c.Points[i].Density)) {
			t.Errorf("CSV row %d does not lead with density %g: %q", i, c.Points[i].Density, line)
		}
	}

	js, err := c.FormatJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Curve
	if err := json.Unmarshal([]byte(js), &back); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if fmt.Sprintf("%+v", back.Spec) != fmt.Sprintf("%+v", s) {
		t.Errorf("JSON round-trip changed the spec: %+v vs %+v", back.Spec, s)
	}
	if len(back.Points) != len(c.Points) {
		t.Fatalf("JSON round-trip has %d points, want %d", len(back.Points), len(c.Points))
	}
	for i := range c.Points {
		if back.Points[i] != c.Points[i] {
			t.Errorf("point %d changed through JSON: %+v vs %+v", i, back.Points[i], c.Points[i])
		}
	}
}

// TestShardedRetryOnSurvivor injects a bad first response on one of two
// shards: the coordinator must drop the faulty shard, replay its ranges
// on the survivor, and still produce the in-process curve byte for byte.
func TestShardedRetryOnSurvivor(t *testing.T) {
	s := testCampaignSpec()
	inproc, err := RunCampaign(s)
	if err != nil {
		t.Fatal(err)
	}
	want := inproc.Format()

	responses := 0
	bad := fakeShard(t, func(r *ShardResponse) {
		if responses == 0 {
			r.Partial, r.Error = nil, "injected fault"
		}
		responses++
	})
	good := pipeShards(t, 1)[0]
	c, err := RunCampaignSharded(s, []ShardConn{bad, good}, 7)
	bad.W.(io.Closer).Close()
	closeShards([]ShardConn{good})
	if err != nil {
		t.Fatalf("campaign failed despite a surviving shard: %v", err)
	}
	if got := c.Format(); got != want {
		t.Fatalf("retried curve differs from in-process:\n%s\nvs\n%s", got, want)
	}
}

// TestShardedRetryFailsToo pins the single-retry contract: when a range
// fails on its second shard as well, the campaign fails with both errors.
func TestShardedRetryFailsToo(t *testing.T) {
	s := testCampaignSpec()
	s.Points = s.Points[:1]
	s.Systems = 40
	// With batch 10 the point splits into 4 chunks: shard 0 is dealt
	// lo 0 and 20, shard 1 lo 10 and 30. Shard 0 dies immediately; shard 1
	// answers its own two chunks, then fails every retried range.
	bad := fakeShard(t, func(r *ShardResponse) { r.Partial, r.Error = nil, "dead on arrival" })
	served := 0
	flaky := fakeShard(t, func(r *ShardResponse) {
		if served >= 2 {
			r.Partial, r.Error = nil, "retry refused"
		}
		served++
	})
	_, err := RunCampaignSharded(s, []ShardConn{bad, flaky}, 10)
	bad.W.(io.Closer).Close()
	flaky.W.(io.Closer).Close()
	if err == nil || !strings.Contains(err.Error(), "retry refused") || !strings.Contains(err.Error(), "dead on arrival") {
		t.Fatalf("err = %v, want both the first failure and the retry failure", err)
	}
}

// TestShardedAllShardsFail checks there is no retry pass without a
// survivor: the first pass's own error surfaces unchanged.
func TestShardedAllShardsFail(t *testing.T) {
	s := testCampaignSpec()
	s.Points = s.Points[:1]
	s.Systems = 40
	conns := []ShardConn{
		fakeShard(t, func(r *ShardResponse) { r.Partial, r.Error = nil, "disk on fire" }),
		fakeShard(t, func(r *ShardResponse) { r.Partial, r.Error = nil, "disk on fire" }),
	}
	_, err := RunCampaignSharded(s, conns, 10)
	for _, c := range conns {
		c.W.(io.Closer).Close()
	}
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err = %v, want the shard failure", err)
	}
	if strings.Contains(err.Error(), "retry") {
		t.Fatalf("err = %v, must not claim a retry happened", err)
	}
}

// TestCampaignSpecValidate spot-checks the guard rails on wire-supplied
// specs.
func TestCampaignSpecValidate(t *testing.T) {
	good := testCampaignSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*CampaignSpec){
		func(s *CampaignSpec) { s.Points = nil },
		func(s *CampaignSpec) { s.Points = []float64{1, -2} },
		func(s *CampaignSpec) { s.Systems = 0 },
		func(s *CampaignSpec) { s.ServerPeriod = 0 },
		func(s *CampaignSpec) { s.HorizonPeriods = -1 },
		func(s *CampaignSpec) { s.Policy = 99 },
		func(s *CampaignSpec) { s.Points = []float64{math.NaN()} },
		func(s *CampaignSpec) { s.Points = []float64{math.Inf(1)} },
		func(s *CampaignSpec) { s.Points = []float64{1e15} },
		func(s *CampaignSpec) { s.HorizonPeriods = MaxEventsPerSystem + 1 },
		func(s *CampaignSpec) { s.AverageCost = math.NaN() },
		func(s *CampaignSpec) { s.StdDeviation = math.Inf(-1) },
		func(s *CampaignSpec) { s.ServerCapacity = math.NaN() },
		func(s *CampaignSpec) { s.ServerPeriod = math.Inf(1) },
	}
	for i, mutate := range bad {
		s := testCampaignSpec()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("case %d: invalid spec passed validation", i)
		}
	}
	edge := testCampaignSpec()
	edge.Points = []float64{float64(MaxEventsPerSystem) / float64(edge.HorizonPeriods)}
	if err := edge.Validate(); err != nil {
		t.Errorf("a point at the events-per-system bound: %v", err)
	}
}

// TestShardSessionReuse checks that a session's warm workers carry nothing
// from one request into the next: one session serves requests of two
// specs that differ in policy, sweep points, horizon and average cost,
// interleaved, first in ascending and then in descending point order, and
// every partial must equal a fresh RunCampaignRange of the same range.
// Two harness workers let a helper draw a second worker from the set.
func TestShardSessionReuse(t *testing.T) {
	harness.SetWorkers(2)
	defer harness.SetWorkers(0)
	a := testCampaignSpec()
	b := DefaultCampaignSpec()
	b.Points = []float64{4, 1}
	b.Systems = 120
	b.HorizonPeriods = 25
	b.AverageCost = 1.5
	b.Policy = sim.PollingServer
	var reqs []ShardRequest
	for _, descending := range []bool{false, true} {
		for k := 0; k < 3; k++ {
			for _, s := range []CampaignSpec{a, b} {
				point := min(k, len(s.Points)-1)
				if descending {
					point = len(s.Points) - 1 - point
				}
				for lo := 0; lo < s.Systems; lo += 60 {
					reqs = append(reqs, ShardRequest{V: ShardProtocolVersion, Spec: s, Point: point, Lo: lo, Hi: lo + 60})
				}
			}
		}
	}
	var in, out bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, req := range reqs {
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := ServeShard(&in, &out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	for _, req := range reqs {
		var resp ShardResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		want, err := RunCampaignRange(req.Spec, req.Point, req.Lo, req.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Partial == nil || *resp.Partial != want {
			t.Fatalf("%v point %d [%d, %d): partial %+v (error %q), want %+v",
				req.Spec.Policy, req.Point, req.Lo, req.Hi, resp.Partial, resp.Error, want)
		}
	}
}
