// Command rtbench is the repository's end-to-end benchmark. It drives the
// paper's two sides — the simulated server policies and the same servers
// executed on the RTSJ emulation — and the campaign fabric and shard wire
// built on them, through the public functions of internal/experiments only.
//
// Usage:
//
//	rtbench [-workload W|all] [-seed N] [-seconds S] [-runs K] [-trace 0|1|FILE] [-json FILE]
//	rtbench -compare [-bounds BENCHMARK.json] A.json B.json ...
//
// Every workload runs in its own child process: rtbench re-executes itself
// once per (workload, seed), so garbage-collector state and peak RSS never
// leak between workloads. The child sets the workload up, runs one untimed
// warm-up op, then a closed loop of ops for -seconds, and checks every
// op's output. Eight more children only set up, so that setup_s is a median
// of nine cold starts.
//
// With -trace 1 (or -trace FILE, which also writes the recorded spans to
// FILE) the child instead replays every workload's composition serially
// through the same public calls, records a span around each call into a
// layer, asserts the replay reproduces the program's own results, and
// prints the per-layer metrics.
//
// Each run prints one "workload metric value unit" line per metric and
// then its result as one JSON line. rtbench exits non-zero if any output
// check fails.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// defaultSeed is the paper's generation seed.
	defaultSeed = 1983
	// setupProbes is the number of set-up-only children run beside the
	// measuring child; setup_s is the median of all their set-up times.
	setupProbes = 8
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run, in the shape printed as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childReport is what a measuring child hands back to its parent.
type childReport struct {
	// Samples is the number of timed ops behind the op percentiles.
	Samples int `json:"samples"`
	// CalibrationMs is the mean calibration round of the timed phase.
	CalibrationMs float64 `json:"calibration_ms,omitempty"`
	Result        result  `json:"result"`
}

// runRecord is one run as kept in a -json file.
type runRecord struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Traced        bool    `json:"traced"`
	Samples       int     `json:"samples"`
	CalibrationMs float64 `json:"calibration_ms,omitempty"`
	Result        result  `json:"result"`
}

// runSet is the content of a -json file. A history file holds several sets
// under Sets instead.
type runSet struct {
	Go      string      `json:"go,omitempty"`
	NProc   int         `json:"nproc,omitempty"`
	Date    string      `json:"date,omitempty"`
	Seconds float64     `json:"seconds,omitempty"`
	Runs    []runRecord `json:"runs,omitempty"`
	Sets    []runSet    `json:"sets,omitempty"`
}

type options struct {
	workloads []string
	seed      int64
	seconds   float64
	runs      int
	trace     string // "0", "1" or a span file
	jsonOut   string
}

func (o options) traced() bool { return o.trace != "0" }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Int64("seed", defaultSeed, "input seed; run k of -runs uses seed+k")
	seconds := fs.Float64("seconds", 20, "length of each timed phase, in seconds")
	runs := fs.Int("runs", 1, "runs per workload")
	trace := fs.String("trace", "0", "0: end-to-end run; 1: traced per-layer run; FILE: traced run that writes its spans to FILE")
	jsonOut := fs.String("json", "", "also write every run to this file")
	compare := fs.Bool("compare", false, "compare the result files given as arguments against the first one")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the regression bounds, for -compare")
	child := fs.String("child", "", "internal: probe or run, set when rtbench re-executes itself")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(*bounds, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rtbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, runs: *runs, trace: *trace, jsonOut: *jsonOut}
	if *workload == "all" {
		o.workloads = workloadNames()
	} else if _, ok := findWorkload(*workload); ok {
		o.workloads = []string{*workload}
	} else {
		fmt.Fprintf(stderr, "rtbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if !(o.seconds > 0 && o.seconds <= 600) {
		fmt.Fprintf(stderr, "rtbench: -seconds must be in (0, 600] (got %v)\n", o.seconds)
		return 2
	}
	if o.runs < 1 {
		fmt.Fprintf(stderr, "rtbench: -runs must be at least 1 (got %d)\n", o.runs)
		return 2
	}
	if o.trace == "" {
		fmt.Fprintln(stderr, "rtbench: -trace needs 0, 1 or a file name")
		return 2
	}
	switch *child {
	case "":
		return orchestrate(o, stdout, stderr)
	case "probe", "run":
		if len(o.workloads) != 1 {
			fmt.Fprintln(stderr, "rtbench: a child runs exactly one workload")
			return 2
		}
		return runChild(*child, o, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "rtbench: unknown -child mode %q\n", *child)
		return 2
	}
}

// orchestrate runs every requested (workload, seed) in child processes and
// prints their results.
func orchestrate(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "rtbench: locate own binary: %v\n", err)
		return 1
	}
	set := runSet{
		Go:      runtime.Version(),
		NProc:   runtime.NumCPU(),
		Date:    time.Now().UTC().Format(time.RFC3339),
		Seconds: o.seconds,
	}
	ok := true
	for _, w := range o.workloads {
		for k := 0; k < o.runs; k++ {
			rec, err := runOne(exe, w, o.seed+int64(k), o, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "rtbench: %s, seed %d: %v\n", w, o.seed+int64(k), err)
				return 1
			}
			printRun(stdout, rec)
			if !rec.Result.Correct || rec.Result.Failed > 0 {
				ok = false
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "rtbench: write %s: %v\n", o.jsonOut, err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "rtbench: output checks failed")
		return 1
	}
	return 0
}

// runOne measures one (workload, seed): the set-up probes and the measuring
// child for an end-to-end run, the replaying child for a traced one.
func runOne(exe, w string, seed int64, o options, stderr io.Writer) (runRecord, error) {
	args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", o.trace}
	rec := runRecord{Workload: w, Seed: seed, Traced: o.traced()}
	// Set-up times are scaled to the reference machine speed like the
	// other timings, by calibration rounds run here before each child.
	var setups, rounds []float64
	if !o.traced() {
		for i := 0; i < setupProbes; i++ {
			rounds = append(rounds, float64(calibrate()))
			setup, _, err := spawn(exe, append([]string{"-child", "probe"}, args...), stderr)
			if err != nil {
				return rec, fmt.Errorf("set-up probe: %w", err)
			}
			setups = append(setups, setup)
		}
		rounds = append(rounds, float64(calibrate())) // before the measuring child
	}
	setup, last, err := spawn(exe, append([]string{"-child", "run"}, args...), stderr)
	if err != nil {
		return rec, err
	}
	var rep childReport
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return rec, fmt.Errorf("decode child report %q: %w", last, err)
	}
	if !o.traced() {
		scale := float64(calibrationRef) / median(rounds)
		rep.Result.Metrics["setup_s"] = metric{median(append(setups, setup)) * scale, "s"}
	}
	rec.Samples, rec.CalibrationMs, rec.Result = rep.Samples, rep.CalibrationMs, rep.Result
	return rec, nil
}

// readyLine is the line a child prints once set up; the parent times the
// child's set-up from its start to this line.
const readyLine = "ready"

// spawn runs one child to completion. It returns the seconds from the
// child's start to its ready line, and the child's last output line.
func spawn(exe string, args []string, stderr io.Writer) (setup float64, last string, err error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, "", err
	}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, "", err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	ready := false
	for sc.Scan() {
		line := sc.Text()
		if !ready && line == readyLine {
			setup = time.Since(began).Seconds()
			ready = true
			continue
		}
		if line != "" {
			last = line
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, "", fmt.Errorf("child %v: %w", args, err)
	}
	if scanErr != nil {
		return 0, "", fmt.Errorf("read child output: %w", scanErr)
	}
	if !ready {
		return 0, "", errors.New("child exited without setting up")
	}
	return setup, last, nil
}

// printRun prints one "workload metric value unit" line per metric, then
// the run's result as one JSON line.
func printRun(w io.Writer, rec runRecord) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for name := range rec.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s", rec.Workload, name, m.Value, m.Unit)
		if strings.HasPrefix(name, "op_p") {
			fmt.Fprintf(w, " n=%d", rec.Samples)
		}
		fmt.Fprintln(w)
	}
	if !rec.Traced {
		fmt.Fprintf(w, "%s calibration_ms %.6g ms\n", rec.Workload, rec.CalibrationMs)
		fmt.Fprintf(w, "%s failed_ratio %.6g ratio n=%d\n", rec.Workload,
			float64(rec.Result.Failed)/float64(max(rec.Result.Attempted, 1)), rec.Result.Attempted)
	}
	data, _ := json.Marshal(rec.Result) // a map of plain numbers always encodes
	fmt.Fprintln(w, string(data))
}
