package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// fuzzWorkBudget bounds the simulated events a fuzzed session may ask for
// (systems times the expected events per system, summed over its
// requests). A valid request for more is served in time proportional to
// its size, which is cost, not a fault; the fuzzer skips it so that every
// input runs in milliseconds.
const fuzzWorkBudget = 20_000

// fuzzWork estimates the work of the requests ServeShard would serve from
// in, decoding them the way the server does and stopping where the server
// would end the session.
func fuzzWork(in []byte) float64 {
	dec := json.NewDecoder(bytes.NewReader(in))
	work := 0.0
	for {
		var req ShardRequest
		if dec.Decode(&req) != nil || req.V != ShardProtocolVersion || req.Hi-req.Lo > maxShardRangeSystems {
			return work
		}
		s := req.Spec
		if s.Validate() != nil || req.Point < 0 || req.Point >= len(s.Points) ||
			req.Lo < 0 || req.Hi > s.Systems || req.Lo > req.Hi {
			return work
		}
		work += float64(req.Hi-req.Lo) * max(s.Points[req.Point], 1) * float64(max(s.HorizonPeriods, 1))
	}
}

// FuzzServeShard feeds arbitrary request streams to a shard worker: it
// must end the session — answering every request or erroring — and never
// panic. Every line it writes is a response carrying either a partial or
// an error, and a session that fails ends on an error response. The seed
// corpus is under testdata/fuzz/FuzzServeShard.
func FuzzServeShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if fuzzWork(in) > fuzzWorkBudget {
			t.Skip("asks for more simulated work than a fuzz input may")
		}
		var out bytes.Buffer
		err := ServeShard(bytes.NewReader(in), &out)
		dec := json.NewDecoder(&out)
		var last ShardResponse
		for n := 0; ; n++ {
			var resp ShardResponse
			derr := dec.Decode(&resp)
			if derr == io.EOF {
				break
			}
			if derr != nil {
				t.Fatalf("response %d does not decode: %v\n%s", n, derr, out.String())
			}
			if resp.V != ShardProtocolVersion || (resp.Error == "") == (resp.Partial == nil) {
				t.Fatalf("response %d: %+v, want version %d and exactly one of a partial or an error",
					n, resp, ShardProtocolVersion)
			}
			if err == nil && resp.Error != "" {
				t.Fatalf("response %d carries error %q, but the session succeeded", n, resp.Error)
			}
			last = resp
		}
		if err != nil && last.Error == "" {
			t.Fatalf("session failed (%v) without an error response", err)
		}
	})
}
