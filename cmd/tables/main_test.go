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

// TestGoldenTables pins the command's full output byte for byte: the
// paper's Tables 2-5 (both simulation and execution sides) and, with
// -matrix, the policy-grid extension. The execution tables run every
// system through the executive, so any change to a schedule shows here.
// The goldens are the command's own output; after an intentional change
// to the tables, regenerate them with
//
//	go run ./cmd/tables > cmd/tables/testdata/default.golden
//	go run ./cmd/tables -matrix > cmd/tables/testdata/matrix.golden
func TestGoldenTables(t *testing.T) {
	for _, g := range []struct {
		golden string
		args   []string
	}{
		{"testdata/default.golden", nil},
		{"testdata/matrix.golden", []string{"-matrix"}},
		{"testdata/default.golden", []string{"-workers", "1"}},
	} {
		t.Run(strings.Join(append([]string{"tables"}, g.args...), " "), func(t *testing.T) {
			code, stdout, stderr := runCmd(g.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			want, err := os.ReadFile(g.golden)
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", g.golden, stdout, want)
			}
		})
	}
}

// TestGoldenCampaign pins the -campaign curve byte for byte: the stock
// 8x1000 sweep in all three output formats, and a 300-system sweep under
// every server policy the flag accepts. The campaign fabric reuses
// per-worker generator, simulator and fold state, so a stale field that
// leaks from one system into the next shows here. Regenerate after an
// intentional change with
//
//	go run ./cmd/tables -campaign > cmd/tables/testdata/campaign.golden
//	go run ./cmd/tables -campaign -format csv > cmd/tables/testdata/campaign-csv.golden
//	go run ./cmd/tables -campaign -format json > cmd/tables/testdata/campaign-json.golden
//	go run ./cmd/tables -campaign -systems 300 -policy P > cmd/tables/testdata/campaign-P.golden
func TestGoldenCampaign(t *testing.T) {
	type golden struct {
		file string
		args []string
	}
	gs := []golden{
		{"testdata/campaign.golden", []string{"-campaign"}},
		{"testdata/campaign-csv.golden", []string{"-campaign", "-format", "csv"}},
		{"testdata/campaign-json.golden", []string{"-campaign", "-format", "json"}},
	}
	for _, p := range []string{"bg", "ps", "ds", "ps-lim", "ds-lim", "ss", "pe", "slack"} {
		gs = append(gs, golden{"testdata/campaign-" + p + ".golden", []string{"-campaign", "-systems", "300", "-policy", p}})
	}
	for _, g := range gs {
		t.Run(strings.Join(g.args, " "), func(t *testing.T) {
			code, stdout, stderr := runCmd(g.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			want, err := os.ReadFile(g.file)
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", g.file, stdout, want)
			}
		})
	}
}

func TestRejectsBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string // substring of stderr
	}{
		{"unknown table", []string{"-table", "9"}, 1, `no table "9"`},
		{"negative workers", []string{"-workers", "-1"}, 2, "-workers must be >= 0 (got -1)"},
		{"bad point", []string{"-campaign", "-points", "1,x"}, 2, `-points: "x" is not a number`},
		{"unknown policy", []string{"-campaign", "-policy", "nope"}, 2, `-policy: unknown policy "nope"`},
		{"unknown format", []string{"-campaign", "-format", "xml"}, 2, `-format: unknown format "xml"`},
		{"unknown flag", []string{"-kernel", "channel"}, 2, "flag provided but not defined: -kernel"},
		{"NaN point", []string{"-campaign", "-points", "NaN", "-systems", "3"}, 2, "density NaN must be positive and finite"},
		{"infinite point", []string{"-campaign", "-points", "Inf", "-systems", "3"}, 2, "density +Inf must be positive and finite"},
		{"oversized point", []string{"-campaign", "-points", "1e15", "-systems", "3"}, 2, "exceeds 100000 events per system"},
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
