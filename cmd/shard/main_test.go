package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

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
