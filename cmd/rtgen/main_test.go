package main

import (
	"bytes"
	"strings"
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/sim"
	"rtsj/internal/spec"
)

// runCmd runs the command in-process and returns its exit status and
// output streams.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestDefaultOutputParses checks the default system, printed in the rtss
// spec format, reads back with spec.Parse: the paper's ten-period horizon,
// the limited polling server and per-period arrivals at density 2.
func TestDefaultOutputParses(t *testing.T) {
	code, stdout, stderr := runCmd()
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	f, err := spec.Parse(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("default output does not parse: %v\n%s", err, stdout)
	}
	if f.Horizon != rtime.AtTU(60) {
		t.Errorf("horizon %v, want 60tu", f.Horizon)
	}
	if s := f.System.Server; s == nil || s.Policy != sim.LimitedPollingServer {
		t.Errorf("server %+v, want ps-lim", s)
	}
	if got := len(f.System.Aperiodics); got != 20 {
		t.Errorf("%d aperiodic events, want 2 per period over 10 periods", got)
	}
}

// TestExitCodes checks every hostile or malformed flag value exits 2 with
// a message on stderr and prints no system.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		msg  string
	}{
		{"oversized density", []string{"-density", "1e15"}, "exceeds 100000 events per system"},
		{"NaN density", []string{"-density", "NaN"}, "density NaN must be positive and finite"},
		{"infinite density", []string{"-density", "Inf"}, "density +Inf must be positive and finite"},
		{"zero density", []string{"-density", "0"}, "must be positive and finite"},
		{"NaN deviation", []string{"-sd", "NaN"}, "must be finite"},
		{"negative horizon", []string{"-periods", "-3"}, "horizon must be 1 to 100000 periods"},
		{"zero server period", []string{"-period", "0"}, "server capacity and period must be positive"},
		{"unknown server", []string{"-server", "edf"}, "unknown server policy"},
		{"no systems", []string{"-n", "0"}, "-n must be positive"},
		{"index out of range", []string{"-n", "3", "-index", "3"}, "index 3 out of range"},
		{"negative index", []string{"-index", "-1"}, "index -1 out of range"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, c.msg) {
				t.Errorf("stderr %q does not mention %q", stderr, c.msg)
			}
			if stdout != "" {
				t.Errorf("printed a system on a bad command line:\n%s", stdout)
			}
		})
	}
}

// TestHugeCountStreams checks rtgen draws its systems one at a time: -n
// 1000000000 -index 3 exits 0 at once and prints the same system as -n 10
// -index 3, whose header differs only in the set size.
func TestHugeCountStreams(t *testing.T) {
	code, huge, stderr := runCmd("-n", "1000000000", "-index", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	code, small, stderr := runCmd("-n", "10", "-index", "3")
	if code != 0 {
		t.Fatalf("-n 10: exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(huge, "# rtgen system 4/1000000000:") {
		t.Errorf("header of %q does not count 1000000000 systems", huge)
	}
	if want := strings.Replace(small, "4/10:", "4/1000000000:", 1); huge != want {
		t.Errorf("-n 1000000000 printed\n%s\nwant\n%s", huge, want)
	}
}
