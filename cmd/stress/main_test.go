package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// runCmd runs the command in-process and returns its exit status and
// output streams.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRejectsBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string // substring of stderr
	}{
		{"unknown scenario", []string{"-scenario", "bursty"}, 1, `unknown scenario "bursty"`},
		{"negative n", []string{"-n", "-5"}, 1, "must be >= 0"},
		{"background on steady", []string{"-scenario", "steady", "-background", "2"}, 1, "apply only to -scenario sporadic"},
		{"bands on steady", []string{"-scenario", "steady", "-bands", "3"}, 1, "apply only to -scenario sporadic"},
		{"faults on steady", []string{"-scenario", "steady", "-faults", "seed=1 drop=0.1"}, 1, "apply only to -scenario sporadic"},
		{"cpus on steady", []string{"-scenario", "steady", "-cpus", "2"}, 1, "apply only to -scenario sporadic"},
		{"horizon on sporadic", []string{"-horizon", "100"}, 1, "applies only to -scenario steady"},
		{"infinite overrun", []string{"-faults", "seed=1 overrun=1:Inf"}, 1, "overrun max +Inf outside [0, 1000]"},
		{"NaN drop", []string{"-faults", "drop=NaN"}, 1, "drop probability NaN"},
		{"kernel flag is gone", []string{"-kernel", "channel"}, 2, "flag provided but not defined: -kernel"},
		{"maxgoroutines flag is gone", []string{"-maxgoroutines", "8"}, 2, "flag provided but not defined: -maxgoroutines"},
		{"activation flag is gone", []string{"-activation=false"}, 2, "flag provided but not defined: -activation"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
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

var fingerprintRE = regexp.MustCompile(`fingerprint=([0-9a-f]{16})`)

// TestSummaryFingerprintIsConfigIndependent runs each scenario small and
// requires its summary line to carry the pinned fingerprint. The pins were
// captured with activation dispatch on and off, which printed the same
// fingerprint; the periodic work now always runs as activations.
func TestSummaryFingerprintIsConfigIndependent(t *testing.T) {
	for _, sc := range []struct {
		scenario, prefix, fingerprint string
	}{
		{"sporadic", "stress: ", "1c528d02dd03afec"},
		{"steady", "steady: ", "e2f13055a88990fb"},
	} {
		t.Run(sc.scenario, func(t *testing.T) {
			code, stdout, stderr := runCmd("-scenario", sc.scenario, "-n", "200", "-quiet")
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if !strings.HasPrefix(stdout, sc.prefix) || strings.Count(stdout, "\n") != 1 {
				t.Fatalf("want one %q summary line, got %q", sc.prefix, stdout)
			}
			for _, gone := range []string{"kernel=", "maxgoroutines=", "activation="} {
				if strings.Contains(stdout, gone) {
					t.Errorf("summary line still carries a removed field: %q", stdout)
				}
			}
			m := fingerprintRE.FindStringSubmatch(stdout)
			if m == nil {
				t.Fatalf("no fingerprint in %q", stdout)
			}
			if m[1] != sc.fingerprint {
				t.Errorf("fingerprint %s, pinned %s", m[1], sc.fingerprint)
			}
		})
	}
}
