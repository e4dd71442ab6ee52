package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"rtsj/internal/harness"
	"rtsj/internal/metrics"
	"rtsj/internal/obs"
)

// ShardProtocolVersion is the campaign shard wire-protocol version. Both
// sides echo it in every message; a mismatch is rejected, never guessed
// around.
const ShardProtocolVersion = 1

// ShardRequest is one line of the shard protocol: newline-delimited JSON
// from coordinator to worker, asking for the partial metrics of systems
// [Lo, Hi) of one sweep point. The spec travels in full with every request,
// so workers are stateless and any worker can serve any range.
type ShardRequest struct {
	// V is the protocol version (ShardProtocolVersion).
	V int `json:"v"`
	// Spec is the campaign being computed.
	Spec CampaignSpec `json:"spec"`
	// Point indexes Spec.Points.
	Point int `json:"point"`
	// Lo and Hi bound the half-open system-index range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"` // exclusive upper bound of the range
}

// ShardResponse is the worker's answer line: the request's coordinates
// echoed back with the computed partial, or an error. The echo lets the
// coordinator verify it merges exactly the ranges it asked for.
type ShardResponse struct {
	// V is the protocol version (ShardProtocolVersion).
	V int `json:"v"`
	// Point, Lo and Hi echo the request's coordinates.
	Point int `json:"point"`
	Lo    int `json:"lo"` // echoed range start
	Hi    int `json:"hi"` // echoed range end, exclusive
	// Partial is the computed range metrics; nil when Error is set.
	Partial *metrics.Partial `json:"partial,omitempty"`
	// Error carries the worker-side failure, empty on success.
	Error string `json:"error,omitempty"`
}

// ServeShard runs one shard-worker session: it decodes range requests from
// r line by line, computes each through the streaming reducer
// (RunCampaignRange) and encodes one response line per request to w, until
// EOF. A malformed, over-long (beyond maxShardRequestBytes) or
// version-mismatched request, or a failing range, is answered with an
// error response (when the stream still permits one) and terminates the
// session with a non-nil error — a confused coordinator must not be
// half-served. So is a request for more than maxShardRangeSystems
// systems.
//
// cmd/shard wires this to stdin/stdout or to accepted TCP connections.
func ServeShard(r io.Reader, w io.Writer) error {
	return ServeShardStats(r, w, nil)
}

// ShardStats is the worker-side instrument set of the shard protocol:
// request/system/error counters, the in-flight gauge, and the wall-clock
// request-latency histogram. All fields may be nil; a nil *ShardStats
// disables observation entirely.
type ShardStats struct {
	// Requests counts range requests served (including failing ones).
	Requests *obs.Counter
	// Systems counts systems simulated across all served ranges.
	Systems *obs.Counter
	// Errors counts requests answered with an error response.
	Errors *obs.Counter
	// InFlight is the number of requests currently being computed (0 or 1
	// per session; sessions served concurrently stack).
	InFlight *obs.Gauge
	// Latency is the wall-clock milliseconds each range took to compute.
	Latency *obs.Histogram
}

// NewShardStats builds a ShardStats wired to registry r under
// "shard."-prefixed metric names. A nil registry yields nil instruments.
func NewShardStats(r *obs.Registry) *ShardStats {
	return &ShardStats{
		Requests: r.Counter("shard.requests"),
		Systems:  r.Counter("shard.systems"),
		Errors:   r.Counter("shard.errors"),
		InFlight: r.Gauge("shard.inflight"),
		Latency:  r.Histogram("shard.request_ms", obs.DefaultLatencyBuckets),
	}
}

// ServeShardStats is ServeShard with worker-side observability: st's
// instruments (nil disables them) count every request, its systems, its
// wall-clock latency and its outcome. The response stream is byte-
// identical to ServeShard's — stats never leak into the protocol.
func ServeShardStats(r io.Reader, w io.Writer, st *ShardStats) error {
	if st == nil {
		st = &ShardStats{}
	}
	dec := json.NewDecoder(bufio.NewReader(&lineLimit{r: r, max: maxShardRequestBytes}))
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	respond := func(resp ShardResponse) error {
		resp.V = ShardProtocolVersion
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("shard: write response: %w", err)
		}
		return bw.Flush()
	}
	for {
		var req ShardRequest
		switch err := dec.Decode(&req); {
		case err == io.EOF:
			return nil
		case err != nil:
			werr := fmt.Errorf("shard: malformed request: %w", err)
			_ = respond(ShardResponse{Error: werr.Error()})
			return werr
		}
		if req.V != ShardProtocolVersion {
			werr := fmt.Errorf("shard: protocol version %d, want %d", req.V, ShardProtocolVersion)
			st.Requests.Inc()
			st.Errors.Inc()
			_ = respond(ShardResponse{Point: req.Point, Lo: req.Lo, Hi: req.Hi, Error: werr.Error()})
			return werr
		}
		if n := req.Hi - req.Lo; n > maxShardRangeSystems {
			werr := fmt.Errorf("shard: range [%d, %d) asks for %d systems, more than the %d one request may",
				req.Lo, req.Hi, n, maxShardRangeSystems)
			st.Requests.Inc()
			st.Errors.Inc()
			_ = respond(ShardResponse{Point: req.Point, Lo: req.Lo, Hi: req.Hi, Error: werr.Error()})
			return werr
		}
		st.Requests.Inc()
		st.InFlight.Add(1)
		began := time.Now()
		part, err := RunCampaignRange(req.Spec, req.Point, req.Lo, req.Hi)
		st.Latency.Observe(time.Since(began).Milliseconds())
		st.InFlight.Add(-1)
		if err != nil {
			st.Errors.Inc()
			_ = respond(ShardResponse{Point: req.Point, Lo: req.Lo, Hi: req.Hi, Error: err.Error()})
			return fmt.Errorf("shard: range [%d, %d) of point %d: %w", req.Lo, req.Hi, req.Point, err)
		}
		st.Systems.Add(int64(req.Hi - req.Lo))
		if err := respond(ShardResponse{Point: req.Point, Lo: req.Lo, Hi: req.Hi, Partial: &part}); err != nil {
			return err
		}
	}
}

// maxShardRangeSystems bounds the systems one request may ask for
// (Hi - Lo), so a peer cannot pin a worker on one endless range. The
// coordinator never deals larger chunks; at a few microseconds per
// simulated system a full range takes well under a second.
const maxShardRangeSystems = 1 << 16

// maxShardRequestBytes bounds one request line, so a peer that never ends
// its line cannot grow the worker's read buffer without limit. A stock
// request is a few hundred bytes; the cap leaves room for campaigns with
// thousands of sweep points.
const maxShardRequestBytes = 1 << 20

// lineLimit passes r through until a line runs past max bytes; from then
// on every Read fails. A read never takes more than one byte past the
// limit of the line in progress, and the bytes of the failing read are
// still returned, so complete requests before the long line are answered
// first.
type lineLimit struct {
	r   io.Reader
	max int
	n   int // bytes since the last newline
}

func (l *lineLimit) Read(p []byte) (int, error) {
	if l.n > l.max {
		return 0, fmt.Errorf("request line longer than %d bytes", l.max)
	}
	if rest := l.max - l.n + 1; len(p) > rest {
		p = p[:rest]
	}
	n, err := l.r.Read(p)
	// With the read capped, every line the chunk completes fits; only the
	// run after its last newline can pass the limit.
	if i := bytes.LastIndexByte(p[:n], '\n'); i >= 0 {
		l.n = n - 1 - i
	} else {
		l.n += n
	}
	if l.n > l.max {
		return n, fmt.Errorf("request line longer than %d bytes", l.max)
	}
	return n, err
}

// ShardConn is one connected shard worker from the coordinator's side: a
// subprocess's stdin/stdout pipes, a TCP connection, or an in-memory pipe
// in tests. Name labels the worker in error messages.
type ShardConn struct {
	// Name labels the worker in error messages ("shard 2", an address).
	Name string
	// R carries the worker's response lines.
	R io.Reader
	// W carries the coordinator's request lines.
	W io.Writer
}

// shardHealth renders the per-shard status fragment of a progress line:
// one "name:served(ok|FAILED)" cell per shard, served counting the
// ranges the shard answered.
func shardHealth(sessions []*shardSession) string {
	out := ""
	for i, ss := range sessions {
		if i > 0 {
			out += " "
		}
		state := "ok"
		if ss.failed.Load() {
			state = "FAILED"
		}
		out += fmt.Sprintf("%s:%d(%s)", ss.name, ss.served.Load(), state)
	}
	return out
}

// shardChunk is one (point, range) work unit of a sharded campaign.
type shardChunk struct {
	point, lo, hi int
}

// rangedPartial is one validated shard answer: the chunk it covers plus
// the computed partial.
type rangedPartial struct {
	shardChunk
	part metrics.Partial
}

// shardSession is the coordinator's end of one worker connection. The
// encoder/decoder pair persists across passes, so a retry on a surviving
// shard continues the same byte stream instead of losing buffered
// read-ahead to a fresh decoder.
type shardSession struct {
	name string
	enc  *json.Encoder
	dec  *json.Decoder

	// The progress tracker (nil without one), and the session's own
	// health tallies for the progress health line.
	prog   *progressTracker
	served atomic.Int64
	failed atomic.Bool
}

// run drives the session through work synchronously: write a request,
// read the response, validate the echo. It returns the validated partials
// of the chunks that completed; on failure, the completed prefix rides
// along with the error so the coordinator can retry only the remainder
// elsewhere.
func (ss *shardSession) run(s CampaignSpec, work []shardChunk) ([]rangedPartial, error) {
	out := make([]rangedPartial, 0, len(work))
	for _, ch := range work {
		req := ShardRequest{V: ShardProtocolVersion, Spec: s, Point: ch.point, Lo: ch.lo, Hi: ch.hi}
		if err := ss.enc.Encode(req); err != nil {
			ss.failed.Store(true)
			return out, fmt.Errorf("campaign: %s: write request: %w", ss.name, err)
		}
		var resp ShardResponse
		if err := ss.dec.Decode(&resp); err != nil {
			ss.failed.Store(true)
			return out, fmt.Errorf("campaign: %s: read response for point %d range [%d, %d): %w",
				ss.name, ch.point, ch.lo, ch.hi, err)
		}
		if resp.Error != "" {
			ss.failed.Store(true)
			return out, fmt.Errorf("campaign: %s: %s", ss.name, resp.Error)
		}
		if resp.V != ShardProtocolVersion {
			ss.failed.Store(true)
			return out, fmt.Errorf("campaign: %s: protocol version %d, want %d", ss.name, resp.V, ShardProtocolVersion)
		}
		if resp.Point != ch.point || resp.Lo != ch.lo || resp.Hi != ch.hi {
			ss.failed.Store(true)
			return out, fmt.Errorf("campaign: %s: response for point %d range [%d, %d), want point %d range [%d, %d)",
				ss.name, resp.Point, resp.Lo, resp.Hi, ch.point, ch.lo, ch.hi)
		}
		if resp.Partial == nil {
			ss.failed.Store(true)
			return out, fmt.Errorf("campaign: %s: response for point %d range [%d, %d) carries no partial",
				ss.name, ch.point, ch.lo, ch.hi)
		}
		if resp.Partial.Systems != ch.hi-ch.lo {
			ss.failed.Store(true)
			return out, fmt.Errorf("campaign: %s: partial for point %d range [%d, %d) covers %d systems, want %d",
				ss.name, ch.point, ch.lo, ch.hi, resp.Partial.Systems, ch.hi-ch.lo)
		}
		out = append(out, rangedPartial{shardChunk: ch, part: *resp.Partial})
		ss.served.Add(1)
		ss.prog.add(int64(ch.hi - ch.lo))
	}
	return out, nil
}

// RunCampaignSharded runs the campaign across the connected shard workers
// and merges their partials into the curve. Each sweep point's index space
// is split into chunks of batch systems (batch <= 0 picks a default that
// keeps every shard several chunks deep; either is capped at the range a
// worker serves per request); chunks are dealt round-robin and
// each worker processes its chunks in order over its connection.
//
// A failing shard does not abort the campaign outright: the shard is
// dropped, and every range it had not answered (including the one that
// failed) is dealt round-robin over the surviving shards and retried
// once. The campaign fails only when a retried range fails again or no
// shard survived the first pass. Retries cannot perturb the result: a
// range's partial is the same exact integer tally whichever worker
// computes it, and the merge orders by system index, not by provenance.
//
// The merge is deterministic by construction: responses are validated
// against the exact ranges requested (coordinates echoed, one response per
// chunk, partial system counts matching the range width), sorted by
// (point, range start) and merged in that index order. Because partials
// are exact integer tallies, the resulting curve is bit-identical to
// RunCampaign's, for any shard count and any batch size — the fabric's
// differential invariant.
func RunCampaignSharded(s CampaignSpec, shards []ShardConn, batch int) (*Curve, error) {
	return RunCampaignShardedOpts(s, shards, batch, CampaignOptions{})
}

// RunCampaignShardedOpts is RunCampaignSharded with observability
// options. Progress lines carry per-shard health: the ranges each shard
// answered, and whether it is ok or FAILED. The curve stays bit-identical
// to RunCampaignSharded's — observation only.
//
// The shard sessions share the coordinator's CPU budget: they run on
// harness.MapN, whose helper goroutines come from the process-wide budget
// of Workers()-1. With more shards than workers, sessions take turns: a
// goroutine drives one session through all its chunks before it starts
// the next, so under Workers() == 1 one shard is busy at a time.
func RunCampaignShardedOpts(s CampaignSpec, shards []ShardConn, batch int, opts CampaignOptions) (*Curve, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("campaign: no shard connections")
	}
	if batch <= 0 {
		// Several chunks per shard and point: enough slack to absorb uneven
		// chunk costs without making protocol round-trips dominate.
		batch = (s.Systems + 4*len(shards) - 1) / (4 * len(shards))
		if batch < 1 {
			batch = 1
		}
	}
	batch = min(batch, maxShardRangeSystems) // the most a worker serves per request
	var chunks []shardChunk
	for point := range s.Points {
		for lo := 0; lo < s.Systems; lo += batch {
			hi := lo + batch
			if hi > s.Systems {
				hi = s.Systems
			}
			chunks = append(chunks, shardChunk{point: point, lo: lo, hi: hi})
		}
	}

	sessions := make([]*shardSession, len(shards))
	for si, conn := range shards {
		name := conn.Name
		if name == "" {
			name = fmt.Sprintf("shard %d", si)
		}
		sessions[si] = &shardSession{
			name: name,
			enc:  json.NewEncoder(conn.W),
			dec:  json.NewDecoder(bufio.NewReader(conn.R)),
		}
	}
	prog := newProgress(opts.Progress, "campaign", int64(len(s.Points)*s.Systems),
		func() string { return shardHealth(sessions) })
	defer prog.close()
	for _, ss := range sessions {
		ss.prog = prog
	}

	// First pass: each session drives its shard's chunk queue, on as many
	// goroutines as the harness budget grants (see the doc comment).
	// Determinism comes from the exact merge below, not from any ordering
	// here. A shard's failure is captured, not propagated: its unanswered
	// chunks feed the retry pass.
	type shardResult struct {
		done     []rangedPartial
		leftover []shardChunk
		err      error
	}
	firstPass, _ := harness.MapN(len(shards), len(shards), func(si int) (shardResult, error) {
		var work []shardChunk
		for ci := si; ci < len(chunks); ci += len(shards) {
			work = append(work, chunks[ci])
		}
		done, err := sessions[si].run(s, work)
		return shardResult{done: done, leftover: work[len(done):], err: err}, nil
	})

	var all []rangedPartial
	var leftover []shardChunk
	var survivors []*shardSession
	var firstErr error
	for si, r := range firstPass {
		all = append(all, r.done...)
		if r.err != nil {
			leftover = append(leftover, r.leftover...)
			if firstErr == nil {
				firstErr = r.err
			}
		} else {
			survivors = append(survivors, sessions[si])
		}
	}

	// Retry pass: each leftover range is retried once, dealt round-robin
	// over the shards that completed their first pass cleanly.
	if firstErr != nil {
		if len(survivors) == 0 {
			return nil, firstErr
		}
		retries, _ := harness.MapN(len(survivors), len(survivors), func(k int) (shardResult, error) {
			var work []shardChunk
			for ci := k; ci < len(leftover); ci += len(survivors) {
				work = append(work, leftover[ci])
			}
			done, err := survivors[k].run(s, work)
			return shardResult{done: done, err: err}, nil
		})
		for _, r := range retries {
			if r.err != nil {
				return nil, fmt.Errorf("campaign: retry after failure (%v) failed too: %w", firstErr, r.err)
			}
			all = append(all, r.done...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].point != all[j].point {
			return all[i].point < all[j].point
		}
		return all[i].lo < all[j].lo
	})
	if len(all) != len(chunks) {
		return nil, fmt.Errorf("campaign: merged %d ranges, want %d", len(all), len(chunks))
	}
	c := &Curve{Spec: s, Points: make([]CurvePoint, 0, len(s.Points))}
	for point, d := range s.Points {
		var part metrics.Partial
		for _, r := range all {
			if r.point == point {
				part.Merge(r.part)
			}
		}
		if part.Systems != s.Systems {
			return nil, fmt.Errorf("campaign: point %d merged %d systems, want %d", point, part.Systems, s.Systems)
		}
		c.Points = append(c.Points, CurvePoint{Density: d, Load: s.Load(d), Partial: part})
	}
	return c, nil
}
