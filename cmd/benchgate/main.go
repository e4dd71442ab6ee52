// Command benchgate is the repository's performance-baseline gate.
//
// It runs the engine, executive and table benchmarks at a fixed -benchtime,
// takes per-benchmark minima over -count repetitions (the minimum is the
// robust estimator of a benchmark's true cost under scheduler, GC-drift and
// noisy-neighbour interference), writes a
// benchstat-compatible snapshot (BENCH_<date>.json, whose "raw" field is the
// verbatim `go test -bench` text: extract it with `jq -r .raw` and feed it
// straight to benchstat), and fails — exit code 1 — when any benchmark's
// minimum ns/op regressed more than -threshold versus the committed baseline
// in bench/baseline.json, or when a baseline benchmark is missing from the
// run entirely (renamed, deleted, or failed to list): losing a benchmark
// silently would quietly shrink the gate's coverage.
//
// allocs/op is gated too, for every benchmark that reports it (calls
// b.ReportAllocs) on both sides. Allocation counts are deterministic, so
// they need no noise threshold and no speed normalization: the gate fails
// when a benchmark's minimum allocs/op, read from the "raw" text of both
// snapshots, exceeds the baseline's by more than max(1, 0.1%) — the
// one-allocation slack absorbs the rounding of setup allocations amortized
// over a varying b.N.
//
// Refresh the baseline after an intentional performance change:
//
//	go run ./cmd/benchgate -update
//
// A/B mode sidesteps the committed baseline entirely: `-ab <ref>` checks the
// given git ref out into a throwaway worktree, measures its benchmarks on
// this same runner in this same session, and gates HEAD against that
// measurement. Both sides then share the machine, load and toolchain, so no
// cross-machine calibration is involved — use it to judge a perf-sensitive
// change before updating the committed baseline:
//
//	go run ./cmd/benchgate -ab origin/main
//
// Every snapshot also records a calibration measurement (a fixed integer
// spin workload); when both sides carry one, the gate compares
// speed-normalized ratios, so the committed baseline transfers across
// machines of different raw CPU speed. Microarchitectural differences can
// still skew individual benchmarks — refresh the baseline from the gating
// hardware when they do.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is the on-disk benchmark record. NsPerOp holds each benchmark's
// minimum ns/op keyed by name (GOMAXPROCS suffix stripped); Raw preserves
// the verbatim benchmark output for benchstat. SpinNs is the calibration
// measurement: the minimum time for a fixed single-core integer workload
// on the machine that produced the snapshot. The gate divides every ns/op
// by it, so a committed baseline transfers across machines of different
// scalar speed (first-order; microarchitectural shifts still show).
type Snapshot struct {
	Date      string             `json:"date"`
	GoOS      string             `json:"goos"`
	GoArch    string             `json:"goarch"`
	Bench     string             `json:"bench"`
	BenchTime string             `json:"benchtime"`
	Count     int                `json:"count"`
	SpinNs    float64            `json:"spin_ns,omitempty"`
	NsPerOp   map[string]float64 `json:"ns_per_op"`
	Raw       string             `json:"raw"`
}

// spinSink defeats dead-code elimination of the calibration loop.
var spinSink uint64

// calibrate times a fixed integer workload (minimum of reps runs): a
// machine-speed numeraire for cross-machine baseline comparison.
func calibrate() float64 {
	const iters = 50_000_000
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		ns := float64(time.Since(start).Nanoseconds())
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

var (
	benchLine   = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op`)
	allocsField = regexp.MustCompile(`\s([0-9.e+]+) allocs/op`)
)

func main() {
	var (
		bench     = flag.String("bench", `^(BenchmarkEngine|BenchmarkExec|BenchmarkTable|BenchmarkCampaign)`, "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "500ms", "fixed -benchtime for every run")
		count     = flag.Int("count", 5, "repetitions per benchmark; the gate compares minima")
		pkg       = flag.String("pkg", ".", "package holding the benchmarks")
		baseline  = flag.String("baseline", "bench/baseline.json", "committed baseline to gate against")
		threshold = flag.Float64("threshold", 0.15, "relative ns/op regression that fails the gate")
		out       = flag.String("out", "", "snapshot output path (default BENCH_<date>.json)")
		update    = flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
		input     = flag.String("input", "", "parse an existing go test -bench output file instead of running benchmarks")
		retries   = flag.Int("retries", 2, "times to re-measure benchmarks that look regressed before failing")
		ab        = flag.String("ab", "", "git ref to measure as the baseline on this same runner (A/B mode); overrides -baseline")
	)
	flag.Parse()
	if *ab != "" && (*update || *input != "") {
		fatal(fmt.Errorf("-ab measures both sides itself; it cannot be combined with -update or -input"))
	}

	snap, err := collect(*bench, *benchtime, *count, *pkg, *input, "")
	if err != nil {
		fatal(err)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", snap.Date)
	}
	if err := writeJSON(path, snap); err != nil {
		fatal(err)
	}
	fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", path, len(snap.NsPerOp))

	if *update {
		if err := writeJSON(*baseline, snap); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: baseline %s updated\n", *baseline)
		return
	}

	var base *Snapshot
	if *ab != "" {
		base, err = collectAtRef(*ab, *bench, *benchtime, *count, *pkg)
		if err != nil {
			fatal(fmt.Errorf("A/B baseline at %s: %w", *ab, err))
		}
	} else {
		base, err = readJSON(*baseline)
		if err != nil {
			fatal(fmt.Errorf("no usable baseline at %s (%v); run `go run ./cmd/benchgate -update` to create one", *baseline, err))
		}
	}

	// A minimum can still be inflated when an interference burst covers a
	// whole benchmark's samples, so contested benchmarks are re-measured
	// (their minima merged) before the verdict: a real regression survives
	// the retries, a noisy-neighbour spike does not. Benchmarks present in
	// the baseline but absent from the run are contested too — a transient
	// `go test -list` hiccup recovers on retry; a renamed or deleted
	// benchmark stays missing and fails the gate with an explicit verdict.
	for retry := 0; retry < *retries; retry++ {
		contested := regressions(base, snap, *threshold)
		contested = append(contested, missingFromRun(base, snap)...)
		if len(contested) == 0 || *input != "" {
			break
		}
		fmt.Printf("benchgate: re-measuring %d contested benchmark(s), retry %d\n", len(contested), retry+1)
		again, err := collect("^("+strings.Join(topLevel(contested), "|")+")$", *benchtime, *count, *pkg, "", "")
		if err != nil {
			// Every contested benchmark may be gone from the package (the
			// rename/delete case): nothing to re-measure, let the gate
			// report the missing verdict.
			fmt.Printf("benchgate: re-measure found nothing to run (%v)\n", err)
			break
		}
		for _, name := range slices.Sorted(maps.Keys(again.NsPerOp)) {
			ns := again.NsPerOp[name]
			if old, ok := snap.NsPerOp[name]; !ok || ns < old {
				snap.NsPerOp[name] = ns
			}
		}
		snap.Raw += again.Raw
		if err := writeJSON(path, snap); err != nil {
			fatal(err)
		}
	}
	if failed := gate(base, snap, *threshold); failed {
		os.Exit(1)
	}
}

// topLevel maps benchmark names to their unique top-level functions: a
// contested sub-benchmark ("BenchmarkX/variant") is re-measured by
// re-running BenchmarkX — a slash inside the -bench regex would otherwise
// be split by go test's per-segment matching and never list anything.
func topLevel(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, name := range names {
		top, _, _ := strings.Cut(name, "/")
		if !seen[top] {
			seen[top] = true
			out = append(out, top)
		}
	}
	sort.Strings(out)
	return out
}

// missingFromRun returns the baseline benchmarks the current run did not
// measure at all. Without this check a renamed, deleted, or list-failed
// benchmark would drop out of the comparison silently — the gate would
// pass while losing coverage.
func missingFromRun(base, cur *Snapshot) []string {
	var out []string
	for name := range base.NsPerOp {
		if _, ok := cur.NsPerOp[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

var calibrationWarned bool

// warnOneSidedCalibration prints an explicit warning (once) when only one
// snapshot carries a spin calibration: the gate then compares raw ns/op,
// which is meaningless across machines of different speed.
func warnOneSidedCalibration(base, cur *Snapshot) {
	if (base.SpinNs > 0) == (cur.SpinNs > 0) || calibrationWarned {
		return
	}
	calibrationWarned = true
	side, other := "baseline", "current run"
	if base.SpinNs <= 0 {
		side, other = "current run", "baseline"
	}
	fmt.Printf("benchgate: WARNING: spin calibration present only in the %s (missing from the %s); "+
		"comparing raw ns/op, which does not transfer across machines of different speed — "+
		"refresh the baseline with `go run ./cmd/benchgate -update` on the gating hardware\n",
		side, other)
}

// speedScale returns the machine-speed normalization factor: a machine
// that takes k times longer on the spin workload is expected to take k
// times longer on every benchmark, so the baseline ns/op is scaled by
// cur/base before comparing. Both regressions (the retry filter) and gate
// (the verdict) MUST use this one definition, or a benchmark could be
// retried as contested yet pass the gate (or vice versa).
func speedScale(base, cur *Snapshot) float64 {
	if base.SpinNs > 0 && cur.SpinNs > 0 {
		return cur.SpinNs / base.SpinNs
	}
	warnOneSidedCalibration(base, cur)
	return 1.0
}

// normalizedDelta returns the benchmark's relative regression versus the
// speed-scaled baseline (0 = on par, 0.2 = 20% slower than expected).
func normalizedDelta(old, now, scale float64) float64 {
	return now/(old*scale) - 1
}

// regressions returns the benchmarks whose current minimum exceeds the
// (speed-normalized) baseline by more than threshold.
func regressions(base, cur *Snapshot, threshold float64) []string {
	scale := speedScale(base, cur)
	var out []string
	for name, now := range cur.NsPerOp {
		if old, ok := base.NsPerOp[name]; ok && old > 0 && normalizedDelta(old, now, scale) > threshold {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// collect runs (or reads) the benchmarks and reduces each to its minimum.
// Each benchmark runs in its own `go test` process: a fresh heap per
// benchmark makes the minimum reproducible (in a shared process, a
// benchmark's cost drifts with the garbage earlier benchmarks left behind).
// A non-empty dir runs the benchmarks from that directory (the A/B
// worktree) instead of the current one.
func collect(bench, benchtime string, count int, pkg, input, dir string) (*Snapshot, error) {
	var raw []byte
	var err error
	if input != "" {
		raw, err = os.ReadFile(input)
		if err != nil {
			return nil, err
		}
	} else {
		names, err := listBenchmarks(bench, pkg, dir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			args := []string{"test", "-run", "^$", "-bench", "^" + name + "$",
				"-benchtime", benchtime, "-count", strconv.Itoa(count), pkg}
			fmt.Printf("benchgate: go %v\n", args)
			cmd := exec.Command("go", args...)
			cmd.Dir = dir
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("go test -bench %s failed: %w\n%s", name, err, out)
			}
			raw = append(raw, out...)
		}
	}
	samples := map[string][]float64{}
	goos, goarch := "", ""
	for _, line := range strings.Split(string(raw), "\n") {
		if m := benchLine.FindStringSubmatch(line); m != nil {
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			samples[m[1]] = append(samples[m[1]], ns)
			continue
		}
		if n, ok := strings.CutPrefix(line, "goos: "); ok {
			goos = n
		}
		if n, ok := strings.CutPrefix(line, "goarch: "); ok {
			goarch = n
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark results matched %q", bench)
	}
	snap := &Snapshot{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoOS:      goos,
		GoArch:    goarch,
		Bench:     bench,
		BenchTime: benchtime,
		Count:     count,
		SpinNs:    calibrate(),
		NsPerOp:   map[string]float64{},
		Raw:       string(raw),
	}
	for _, name := range slices.Sorted(maps.Keys(samples)) {
		s := samples[name]
		sort.Float64s(s)
		snap.NsPerOp[name] = s[0] // minimum: robust to one-sided interference noise
	}
	return snap, nil
}

// gate compares minima and reports every regression beyond the threshold.
// When both snapshots carry a calibration measurement, ns/op are compared
// as multiples of each machine's spin time, cancelling raw CPU-speed
// differences between the baseline machine and the gating machine.
func gate(base, cur *Snapshot, threshold float64) (failed bool) {
	scale := speedScale(base, cur)
	if scale != 1.0 || (base.SpinNs > 0 && cur.SpinNs > 0) {
		fmt.Printf("benchgate: calibration %0.f -> %0.f spin-ns; comparing speed-normalized ratios (x%.3f)\n",
			base.SpinNs, cur.SpinNs, scale)
	}
	names := make([]string, 0, len(cur.NsPerOp))
	for name := range cur.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		now := cur.NsPerOp[name]
		old, ok := base.NsPerOp[name]
		if !ok || old <= 0 {
			fmt.Printf("  new   %-40s %12.0f ns/op (no baseline entry)\n", name, now)
			continue
		}
		delta := normalizedDelta(old, now, scale)
		mark := "ok   "
		if delta > threshold {
			mark = "FAIL "
			failed = true
		}
		fmt.Printf("  %s %-40s %12.0f -> %12.0f ns/op  (%+.1f%%)\n", mark, name, old, now, 100*delta)
	}
	baseAllocs, curAllocs := allocsPerOp(base.Raw), allocsPerOp(cur.Raw)
	for _, name := range names {
		now, ok := curAllocs[name]
		old, inBase := baseAllocs[name]
		if !ok || !inBase {
			continue
		}
		mark := "ok   "
		if allocsRegressed(old, now) {
			mark = "FAIL "
			failed = true
		}
		fmt.Printf("  %s %-40s %12.0f -> %12.0f allocs/op\n", mark, name, old, now)
	}
	for _, name := range missingFromRun(base, cur) {
		fmt.Printf("  MISSING from run %-29s (in baseline %12.0f ns/op; renamed, deleted, or failed to list — refresh the baseline if intentional)\n",
			name, base.NsPerOp[name])
		failed = true
	}
	if failed {
		fmt.Printf("benchgate: FAIL — regression beyond %.0f%% ns/op or max(1, 0.1%%) allocs/op vs baseline (%s, %s/%s)\n",
			100*threshold, base.Date, base.GoOS, base.GoArch)
	} else {
		fmt.Printf("benchgate: ok — within %.0f%% ns/op and max(1, 0.1%%) allocs/op of baseline (%s)\n", 100*threshold, base.Date)
	}
	return failed
}

// allocsPerOp reads each benchmark's minimum allocs/op out of raw
// `go test -bench` text. Benchmarks that do not report allocations are
// absent from the map.
func allocsPerOp(raw string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(raw, "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		a := allocsField.FindStringSubmatch(line)
		if a == nil {
			continue
		}
		v, err := strconv.ParseFloat(a[1], 64)
		if err != nil {
			continue
		}
		if old, ok := out[m[1]]; !ok || v < old {
			out[m[1]] = v
		}
	}
	return out
}

// allocsRegressed reports whether now allocs/op exceeds the baseline old
// by more than the tolerance max(1, 0.1% of old).
func allocsRegressed(old, now float64) bool {
	return now > old+max(1, 0.001*old)
}

// collectAtRef measures the benchmarks of another git ref on this same
// runner: the ref is checked out into a throwaway detached worktree, the
// full collect pipeline runs there, and the worktree is removed again. The
// returned snapshot is the A/B baseline — same machine, same load, same
// toolchain as the HEAD measurement, so the gate's speed normalization is a
// near no-op and the comparison isolates the code change itself.
func collectAtRef(ref, bench, benchtime string, count int, pkg string) (*Snapshot, error) {
	tmp, err := os.MkdirTemp("", "benchgate-ab-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	wt := filepath.Join(tmp, "wt")
	add := exec.Command("git", "worktree", "add", "--detach", wt, ref)
	add.Stderr = os.Stderr
	if err := add.Run(); err != nil {
		return nil, fmt.Errorf("git worktree add %s: %w", ref, err)
	}
	defer func() {
		rm := exec.Command("git", "worktree", "remove", "--force", wt)
		rm.Stderr = os.Stderr
		if err := rm.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: cleanup of A/B worktree %s failed: %v\n", wt, err)
		}
	}()
	fmt.Printf("benchgate: measuring A/B baseline at %s (worktree %s)\n", ref, wt)
	snap, err := collect(bench, benchtime, count, pkg, "", wt)
	if err != nil {
		return nil, err
	}
	snap.Date = ref // the gate's verdict line names the baseline by its ref
	return snap, nil
}

// listBenchmarks enumerates the top-level benchmarks matching re in pkg,
// run from dir when non-empty.
func listBenchmarks(re, pkg, dir string) ([]string, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-list", re, pkg)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -list failed: %w\n%s", err, out)
	}
	var names []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "Benchmark") {
			names = append(names, strings.TrimSpace(line))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no benchmarks match %q in %s", re, pkg)
	}
	sort.Strings(names)
	return names, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if len(s.NsPerOp) == 0 {
		return nil, fmt.Errorf("baseline holds no benchmarks")
	}
	return &s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
