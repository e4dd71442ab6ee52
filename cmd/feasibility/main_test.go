package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// runCmd runs the command in-process on the given stdin and returns its
// exit status and output streams.
func runCmd(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// TestGolden pins the analysis report byte for byte for a feasible
// polling-server system (exit 0) and an infeasible deferrable-server one
// (exit 2), read both from -f and from stdin. The goldens are the
// command's own output; after an intentional change, regenerate them with
//
//	go run ./cmd/feasibility -f cmd/feasibility/testdata/ps.rtss > cmd/feasibility/testdata/ps.golden
//	go run ./cmd/feasibility -f cmd/feasibility/testdata/ds.rtss > cmd/feasibility/testdata/ds.golden
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		code int
	}{
		{"ps", 0},
		{"ds", 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			in, err := os.ReadFile("testdata/" + c.name + ".rtss")
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile("testdata/" + c.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				how   string
				stdin string
				args  []string
			}{
				{"-f", "", []string{"-f", "testdata/" + c.name + ".rtss"}},
				{"stdin", string(in), nil},
			} {
				code, stdout, stderr := runCmd(run.stdin, run.args...)
				if code != c.code {
					t.Fatalf("%s: exit %d, want %d (stderr: %s)", run.how, code, c.code, stderr)
				}
				if stdout != string(want) {
					t.Errorf("%s: output differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", run.how, stdout, want)
				}
			}
		})
	}
}

// TestErrors checks unusable input exits non-zero with a message and no
// report: 1 for a missing file, an empty or malformed spec and a system
// without periodic tasks, 2 for a malformed command line.
func TestErrors(t *testing.T) {
	for _, c := range []struct {
		name  string
		stdin string
		args  []string
		code  int
		msg   string
	}{
		{"missing file", "", []string{"-f", "testdata/no-such.rtss"}, 1, "no such file"},
		{"empty input", "", nil, 1, "nothing to analyze"},
		{"bad spec", "periodic tau1 six 2\n", nil, 1, "spec: line 1"},
		{"aperiodic only", "aperiodic J1 1 2\n", nil, 1, "nothing to analyze"},
		{"unknown flag", "", []string{"-bogus"}, 2, "flag provided but not defined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(c.stdin, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, c.code, stderr)
			}
			if !strings.Contains(stderr, c.msg) {
				t.Errorf("stderr %q does not mention %q", stderr, c.msg)
			}
			if strings.Contains(stdout, "verdict") {
				t.Errorf("printed a verdict for unusable input:\n%s", stdout)
			}
		})
	}
}
