package main

import (
	"bytes"
	"os"
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
		msg  string // substring of stderr
	}{
		{"unknown family", []string{"-family", "bursty"}, `unknown family "bursty"`},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be >= 0"},
		{"figures scenario out of range", []string{"-scenario", "4"}, `figures scenario must be 1-3 (got "4")`},
		{"pooled flag is gone", []string{"-family", "overload", "-pooled", "8"}, "flag provided but not defined: -pooled"},
		{"activation flag is gone", []string{"-family", "overload", "-activation"}, "flag provided but not defined: -activation"},
		{"campaign family is gone", []string{"-family", "campaign"}, `unknown family "campaign"`},
		{"progress flag is gone", []string{"-family", "overload", "-progress"}, "flag provided but not defined: -progress"},
		{"smp family is gone", []string{"-family", "smp"}, `unknown family "smp"`},
		{"cpus flag is gone", []string{"-family", "overload", "-cpus", "4"}, "flag provided but not defined: -cpus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(tc.args...)
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

// TestFiguresSmoke renders the worked figures: all three by default with
// the ideal schedule, and one alone without it.
func TestFiguresSmoke(t *testing.T) {
	code, stdout, stderr := runCmd()
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"Task set (Table 1)",
		"=== Scenario 1 (Figure 2) ===",
		"=== Scenario 2 (Figure 3) ===",
		"=== Scenario 3 (Figure 4) ===",
		"Framework execution:",
		"Ideal polling server (RTSS simulation):",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("figures output lacks %q", want)
		}
	}

	code, stdout, stderr = runCmd("-scenario", "2", "-ideal=false")
	if code != 0 {
		t.Fatalf("-scenario 2: exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "=== Scenario 2 (Figure 3) ===") {
		t.Error("-scenario 2 did not render scenario 2")
	}
	if strings.Contains(stdout, "=== Scenario 1") || strings.Contains(stdout, "Ideal polling server") {
		t.Errorf("-scenario 2 -ideal=false rendered more than asked:\n%s", stdout)
	}
}

// TestQuietFingerprintsIndependentOfActivation runs the overload family
// with -quiet and compares every summary line, fingerprint included, with
// its golden. The golden was captured when the periodic work could run as
// looping or as activation threads, and both forms printed it byte for
// byte; the command now runs activation threads only. After an
// intentional schedule change, regenerate it with
//
//	go run ./cmd/scenarios -family overload -quiet > cmd/scenarios/testdata/overload-quiet.golden
func TestQuietFingerprintsIndependentOfActivation(t *testing.T) {
	t.Run("overload", func(t *testing.T) {
		want, err := os.ReadFile("testdata/overload-quiet.golden")
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runCmd("-family", "overload", "-quiet")
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		if stdout != string(want) {
			t.Errorf("summary differs:\n--- got ---\n%s--- want ---\n%s", stdout, want)
		}
	})
}
