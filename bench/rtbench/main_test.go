package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtsj/internal/experiments"
)

// childEnv makes the test binary act as rtbench, so the smoke test drives
// the real parent/child path: the parent re-executes its own binary.
const childEnv = "RTBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// declared reads the metrics BENCHMARK.json declares, by name and unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var def struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, x := range def.EndToEnd {
		endToEnd[x.Name] = x.Unit
	}
	for _, x := range def.PerLayer {
		perLayer[x.Name] = x.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics requires got to hold exactly the declared metrics, each
// finite and in its declared unit.
func checkMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s in %q, declared %q", label, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", label, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared", label, name)
		}
	}
}

// TestSmoke runs every workload briefly through the parent and its
// children and checks every declared end-to-end metric is printed, both as
// a line and in the run's JSON, with no failed op.
func TestSmoke(t *testing.T) {
	t.Setenv(childEnv, "1")
	endToEnd, _ := declared(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-seconds", "0.3"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := map[string]map[string]string{} // workload -> metric -> unit
	results := map[string]result{}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results[last] = r
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			t.Fatalf("malformed line %q", line)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("line %q: value not finite", line)
		}
		if f[1] == "failed_ratio" && v != 0 {
			t.Errorf("line %q: failed ops", line)
		}
		if lines[f[0]] == nil {
			lines[f[0]] = map[string]string{}
		}
		lines[f[0]][f[1]] = f[3]
		last = f[0]
	}
	for _, w := range workloadNames() {
		r, ok := results[w]
		if !ok {
			t.Fatalf("%s: no result line", w)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, r.Correct, r.Attempted, r.Failed)
		}
		checkMetrics(t, w, r.Metrics, endToEnd)
		for name, unit := range endToEnd {
			if lines[w][name] != unit {
				t.Errorf("%s: line for %s has unit %q, declared %q", w, name, lines[w][name], unit)
			}
		}
	}
}

// TestTraceRun checks a short traced run: every declared per-layer metric,
// replays equal to the program's results, and a span file covering every
// layer.
func TestTraceRun(t *testing.T) {
	_, perLayer := declared(t)
	spans := filepath.Join(t.TempDir(), "spans.json")
	var errb bytes.Buffer
	rep := traceRun(7, 100*time.Millisecond, spans, &errb)
	if !rep.Result.Correct || rep.Result.Failed != 0 {
		t.Fatalf("traced run failed: %+v\n%s", rep.Result, errb.String())
	}
	checkMetrics(t, "trace", rep.Result.Metrics, perLayer)
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, s := range file.Spans {
		if s.End < s.Start || s.Parent >= len(file.Spans) {
			t.Fatalf("bad span %+v", s)
		}
		layers[s.Layer] = true
	}
	for _, l := range []string{"bench", "gen", "sim", "metrics", "bridge", "exec", "wire"} {
		if !layers[l] {
			t.Errorf("no span of layer %s", l)
		}
	}
}

// TestReplayFidelity pins the replay's copies of unexported experiments
// details to the program's results, so drift in any copy fails here: the
// table -> (policy, mode) map, the per-point seed offset of campaigns (at a
// seed and point count that make the offset matter), and the flood
// fingerprints of the default seed.
func TestReplayFidelity(t *testing.T) {
	tabs, err := newTablesReplay(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tabs.pass(nil, -1); err != nil {
		t.Fatal(err)
	}

	spec := campaignSpec(424242)
	spec.Systems = 40
	c := &campaignReplay{spec: spec}
	for point := range spec.Points {
		part, err := experiments.RunCampaignRange(spec, point, 0, spec.Systems)
		if err != nil {
			t.Fatal(err)
		}
		c.want = append(c.want, part)
	}
	if err := c.pass(newTracer(), -1); err != nil {
		t.Fatal(err)
	}

	f, err := newFloodReplay(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.(*floodReplay).want; got != pinnedFlood {
		t.Fatalf("default-seed flood fingerprints %#x, pinned %#x", got, pinnedFlood)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestCompare checks -compare passes a set against itself and flags a
// throughput drop beyond the bound.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, perSecond float64) string {
		var s runSet
		for seed := int64(0); seed < 5; seed++ {
			ms := map[string]metric{}
			for _, n := range []string{"setup_s", "op_p50_ms", "op_p90_ms", "allocs_per_unit", "bytes_per_unit", "peak_rss_mb"} {
				ms[n] = metric{Value: 1}
			}
			ms["units_per_s"] = metric{Value: perSecond + float64(seed)}
			s.Runs = append(s.Runs, runRecord{Workload: "tables", Seed: seed, Result: result{Metrics: ms}})
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 1000), write("b.json", 1000), write("c.json", 800)
	var out, errb bytes.Buffer
	if code := compareFiles("../../BENCHMARK.json", []string{base, same}, &out, &errb); code != 0 {
		t.Fatalf("same sets: exit %d\n%s%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := compareFiles("../../BENCHMARK.json", []string{base, slow}, &out, &errb); code != 1 {
		t.Fatalf("slower set: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Fatalf("slower set not flagged:\n%s", out.String())
	}
}
