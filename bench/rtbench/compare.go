package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchDef is the part of BENCHMARK.json that -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSets reads a -json file, or every set of a history file.
func loadSets(path string) ([]runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Sets) > 0 {
		return s.Sets, nil
	}
	return []runSet{s}, nil
}

// compareFiles compares every set after the first against the first, per
// (workload, end-to-end metric): each side's median and quartiles, the
// change of the median, and each side's spread (interquartile distance over
// median). It exits 1 when a median is worse than the base by more than
// the metric's bound, or when a spread other than setup_s's exceeds it.
func compareFiles(boundsPath string, files []string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		fmt.Fprintf(stderr, "rtbench: %v\n", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(stderr, "rtbench: %s: %v\n", boundsPath, err)
		return 2
	}
	var sets []runSet
	for _, f := range files {
		s, err := loadSets(f)
		if err != nil {
			fmt.Fprintf(stderr, "rtbench: %v\n", err)
			return 2
		}
		sets = append(sets, s...)
	}
	if len(sets) < 2 {
		fmt.Fprintln(stderr, "rtbench: -compare needs at least two sets of runs")
		return 2
	}
	// values returns one set's values of a metric on a workload, over its
	// end-to-end runs.
	values := func(s runSet, workload, name string) []float64 {
		var xs []float64
		for _, r := range s.Runs {
			if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && !r.Traced {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	var workloads []string
	seen := map[string]bool{}
	for _, r := range sets[0].Runs {
		if !seen[r.Workload] && !r.Traced {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	bad := 0
	for k, side := range sets[1:] {
		fmt.Fprintf(stdout, "set %d against set 0\n", k+1)
		fmt.Fprintf(stdout, "%-9s %-16s %30s %30s %8s %15s %6s  %s\n",
			"workload", "metric", "base median [q1, q3]", "side median [q1, q3]", "change", "spread b/s", "bound", "verdict")
		for _, w := range workloads {
			for _, d := range def.EndToEnd {
				a, b := values(sets[0], w, d.Name), values(side, w, d.Name)
				if len(a) == 0 || len(b) == 0 {
					fmt.Fprintf(stdout, "%-9s %-16s missing (%d base runs, %d side runs)\n", w, d.Name, len(a), len(b))
					bad++
					continue
				}
				ma, mb := median(a), median(b)
				a1, a3 := quartiles(a)
				b1, b3 := quartiles(b)
				change := (mb - ma) / ma
				worse := change
				if d.Better == "higher" {
					worse = -change
				}
				sa, sb := (a3-a1)/ma, (b3-b1)/mb
				verdict := "ok"
				if worse > d.Bound {
					verdict = "WORSE"
					bad++
				} else if d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound) {
					verdict = "NOISY"
					bad++
				}
				fmt.Fprintf(stdout, "%-9s %-16s %30s %30s %+7.2f%% %6.2f%%/%6.2f%% %5.1f%%  %s\n",
					w, d.Name, quartileCell(ma, a1, a3), quartileCell(mb, b1, b3),
					100*change, 100*sa, 100*sb, 100*d.Bound, verdict)
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func quartileCell(med, q1, q3 float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}
