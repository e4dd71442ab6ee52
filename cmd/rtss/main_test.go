package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtsj/internal/spec"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run")

// TestGoldenTraceExport pins the rtss command's observable output — stdout
// (Gantt + metrics) and the CSV/JSON trace exports — byte for byte, so
// refactors of the trace recording plumbing cannot silently change serialized
// output. Refresh after an intentional format change:
//
//	go test ./cmd/rtss -run TestGoldenTraceExport -update
func TestGoldenTraceExport(t *testing.T) {
	tmp := t.TempDir()
	csvPath := filepath.Join(tmp, "out.csv")
	jsonPath := filepath.Join(tmp, "out.json")

	var stdout bytes.Buffer
	err := run([]string{
		"-f", "testdata/golden.rtss",
		"-csv", csvPath,
		"-json", jsonPath,
	}, strings.NewReader(""), &stdout)
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range []struct {
		golden string
		got    []byte
	}{
		{"testdata/golden.stdout", stdout.Bytes()},
		{"testdata/golden.csv", mustRead(t, csvPath)},
		{"testdata/golden.json", mustRead(t, jsonPath)},
	} {
		if *update {
			if err := os.WriteFile(g.golden, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(g.golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create the golden files)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from golden output:\n--- got ---\n%s\n--- want ---\n%s",
				g.golden, g.got, want)
		}
	}
}

// TestGoldenPerfettoExport pins the -perfetto exporter byte for byte on the
// golden task set (testdata/golden.rtss), so the trace_event serialization
// cannot drift silently. Refresh after an intentional format change:
//
//	go test ./cmd/rtss -run TestGoldenPerfettoExport -update
func TestGoldenPerfettoExport(t *testing.T) {
	tmp := t.TempDir()
	out := filepath.Join(tmp, "out.perfetto.json")
	var stdout bytes.Buffer
	err := run([]string{
		"-f", "testdata/golden.rtss",
		"-exec", "-quiet",
		"-perfetto", out,
	}, strings.NewReader(""), &stdout)
	if err != nil {
		t.Fatal(err)
	}
	got := mustRead(t, out)

	const golden = "testdata/golden.perfetto.json"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create the golden file)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from golden output:\n--- got ---\n%s\n--- want ---\n%s",
				golden, got, want)
		}
	}

	// Schema sanity: the file must decode as a trace_event JSON object and
	// every event must fit the format (known phase, named, on a track).
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	slices := 0
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			t.Errorf("event %d has no name", i)
		}
		if ev.Pid == nil || ev.Tid == nil {
			t.Errorf("event %d (%s) lacks pid/tid", i, ev.Name)
			continue
		}
		switch ev.Ph {
		case "M": // metadata: names a process or thread track
		case "X": // complete slice: needs a start and a duration
			if ev.Ts == nil || ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("X event %d (%s) lacks ts/dur", i, ev.Name)
			}
			if *ev.Pid != 0 || *ev.Tid != 0 {
				t.Errorf("X event %d (%s) on pid %d tid %d, want the CPU track 0/0", i, ev.Name, *ev.Pid, *ev.Tid)
			}
			slices++
		case "i": // instant
			if ev.Ts == nil {
				t.Errorf("instant %d (%s) lacks ts", i, ev.Name)
			}
		default:
			t.Errorf("event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	if slices == 0 {
		t.Error("no execution slice")
	}
}

// TestQuietMetricsMatchTraced pins the nil-trace fast path: -quiet (no
// exports) must print exactly the metrics lines of the traced run, for both
// the simulation and the framework execution.
func TestQuietMetricsMatchTraced(t *testing.T) {
	var traced, quiet bytes.Buffer
	if err := run([]string{"-f", "testdata/golden.rtss", "-exec"}, strings.NewReader(""), &traced); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-f", "testdata/golden.rtss", "-exec", "-quiet"}, strings.NewReader(""), &quiet); err != nil {
		t.Fatal(err)
	}
	// The quiet output must be a subsequence of the traced one: same
	// headers and metrics lines, minus the Gantt charts.
	tracedLines := map[string]bool{}
	for _, line := range strings.Split(traced.String(), "\n") {
		tracedLines[line] = true
	}
	for _, line := range strings.Split(quiet.String(), "\n") {
		if line != "" && !tracedLines[line] {
			t.Errorf("quiet line %q absent from traced output", line)
		}
	}
	if quiet.Len() >= traced.Len() {
		t.Error("quiet output should be strictly smaller (no Gantt charts)")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHostileSpecsFailAtParse checks that rtss exits non-zero at once on a
// file asking for 10⁹ periodic jobs and on one declaring 10⁹ CPUs (specs
// run on one CPU, so any cpus directive is an error). Both are checked
// with spec.Parse first, so a parser that accepted them fails the test
// instead of starting the run.
func TestHostileSpecsFailAtParse(t *testing.T) {
	for _, c := range []struct {
		name, src, msg string
	}{
		{"1e9 jobs", "policy fp\nperiodic tau1 0.001 0.0005 prio=2\nhorizon 1000000\n", "more than 100000 jobs"},
		{"1e9 CPUs", "policy fp\ncpus 1000000000\nperiodic tau1 6 2 prio=2\naperiodic J1 0 1\n", "cpus is not supported: specs run on one CPU"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := spec.Parse(strings.NewReader(c.src)); err == nil {
				t.Fatal("spec.Parse accepted the file")
			}
			for _, args := range [][]string{{"-quiet"}, {"-quiet", "-exec"}} {
				var stdout bytes.Buffer
				err := run(args, strings.NewReader(c.src), &stdout)
				if err == nil || !strings.Contains(err.Error(), c.msg) {
					t.Errorf("%v: error %v, want one containing %q", args, err, c.msg)
				}
				if stdout.Len() != 0 {
					t.Errorf("%v: printed output for a rejected file:\n%s", args, stdout.String())
				}
			}
		})
	}
}
