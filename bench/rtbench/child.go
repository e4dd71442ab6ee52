package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"
)

// runChild is the child side: "probe" sets the workload up and exits,
// "run" also measures it (or, when traced, replays every composition).
func runChild(mode string, o options, stdout, stderr io.Writer) int {
	dur := time.Duration(o.seconds * float64(time.Second))
	var rep childReport
	if o.traced() {
		fmt.Fprintln(stdout, readyLine)
		rep = traceRun(o.seed, dur, o.trace, stderr)
	} else {
		w, _ := findWorkload(o.workloads[0])
		s, err := open(w, o.seed)
		if err != nil {
			fmt.Fprintf(stderr, "rtbench: %s: set-up: %v\n", w.name, err)
			return 1
		}
		// Collect set-up garbage before the ready line, so it is charged to
		// set-up and not to the first timed ops.
		runtime.GC()
		fmt.Fprintln(stdout, readyLine)
		if mode == "probe" {
			if err := s.shut(); err != nil {
				fmt.Fprintf(stderr, "rtbench: %s: %v\n", w.name, err)
				return 1
			}
			return 0
		}
		rep = measure(w.name, s, dur, stderr)
	}
	for name, m := range rep.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "rtbench: metric %s is not finite\n", name)
			rep.Result.Metrics[name] = metric{-1, m.Unit}
			rep.Result.Correct = false
		}
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(stderr, "rtbench: write report: %v\n", err)
		return 1
	}
	return 0
}

// measure runs the closed loop for dur — each op starts when the previous
// one has returned — then the session's reference checks, and computes the
// end-to-end metrics other than setup_s. Calibration rounds run between the
// ops; their allocations are left out of the allocation metrics.
func measure(name string, s *session, dur time.Duration, stderr io.Writer) childReport {
	var m0, m1, c0, c1 runtime.MemStats
	var calMallocs, calBytes uint64
	var sinceRound time.Duration
	ms := make([]float64, 0, 1<<14)          // op times, in ms
	rounds := make([]time.Duration, 0, 1024) // calibration rounds
	ends := make([]int, 0, 1024)             // ops before each round
	round := func() {
		runtime.ReadMemStats(&c0)
		rounds = append(rounds, calibrate())
		runtime.ReadMemStats(&c1)
		calMallocs += c1.Mallocs - c0.Mallocs
		calBytes += c1.TotalAlloc - c0.TotalAlloc
		ends = append(ends, len(ms))
		sinceRound = 0
	}

	failed := 0
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		d, err := s.op()
		ms = append(ms, float64(d)/float64(time.Millisecond))
		if err != nil {
			failed++
			if failed == 1 {
				fmt.Fprintf(stderr, "rtbench: %s: op %d: %v\n", name, len(ms), err)
			}
		}
		if sinceRound += d; sinceRound >= calibrationEvery {
			round()
		}
	}
	if len(ends) == 0 || ends[len(ends)-1] < len(ms) {
		round()
	}
	runtime.ReadMemStats(&m1)
	scaleToReference(ms, rounds, ends)

	correct := failed == 0
	if s.final != nil {
		if err := s.final(); err != nil {
			fmt.Fprintf(stderr, "rtbench: %s: reference check: %v\n", name, err)
			correct = false
		}
	}
	if err := s.shut(); err != nil {
		fmt.Fprintf(stderr, "rtbench: %s: %v\n", name, err)
		correct = false
	}
	var busyMs, calMs float64
	for _, x := range ms {
		busyMs += x
	}
	for _, r := range rounds {
		calMs += float64(r) / float64(time.Millisecond)
	}
	units := float64(s.units * len(ms))
	return childReport{
		Samples:       len(ms),
		CalibrationMs: calMs / float64(len(rounds)),
		Result: result{
			Correct:   correct,
			Attempted: len(ms),
			Failed:    failed,
			Metrics: map[string]metric{
				"units_per_s":     {units / (busyMs / 1e3), "1/s"},
				"op_p50_ms":       {percentile(ms, 50), "ms"},
				"op_p90_ms":       {percentile(ms, 90), "ms"},
				"allocs_per_unit": {float64(m1.Mallocs-m0.Mallocs-calMallocs) / units, "allocs"},
				"bytes_per_unit":  {float64(m1.TotalAlloc-m0.TotalAlloc-calBytes) / units, "B"},
				"peak_rss_mb":     {peakRSSMB(), "MB"},
			},
		},
	}
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
