package experiments

import (
	"runtime"
	"testing"

	"rtsj/internal/gen"
	"rtsj/internal/harness"
	"rtsj/internal/metrics"
	"rtsj/internal/sim"
)

// TestRunTableWorkerDeterminism requires bit-identical table cells for
// worker pools of 1, 4 and GOMAXPROCS: the harness must preserve the
// serial aggregation order no matter how work is interleaved.
func TestRunTableWorkerDeterminism(t *testing.T) {
	defer harness.SetWorkers(0)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	for _, id := range TableIDs {
		var ref *Table
		for _, w := range workerCounts {
			harness.SetWorkers(w)
			got, err := RunTable(id)
			if err != nil {
				t.Fatalf("table %s workers=%d: %v", id, w, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			for _, key := range SetKeys {
				if got.Measured[key] != ref.Measured[key] {
					t.Errorf("table %s set %s: workers=%d cell %+v != workers=%d cell %+v",
						id, key, w, got.Measured[key], workerCounts[0], ref.Measured[key])
				}
			}
		}
	}
}

// TestPolicyMatrixWorkerDeterminism is the same guarantee for the flattened
// policy x set grid of the extension experiment.
func TestPolicyMatrixWorkerDeterminism(t *testing.T) {
	defer harness.SetWorkers(0)
	var ref *PolicyMatrix
	refWorkers := 0
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		harness.SetWorkers(w)
		got, err := RunPolicyMatrix()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref, refWorkers = got, w
			continue
		}
		for _, pol := range MatrixPolicies {
			for _, key := range SetKeys {
				if got.Cells[pol][key] != ref.Cells[pol][key] {
					t.Errorf("%v %s: workers=%d cell %+v != workers=%d cell %+v",
						pol, key, w, got.Cells[pol][key], refWorkers, ref.Cells[pol][key])
				}
			}
		}
	}
}

// TestRunSetMetricsFastPath checks the metrics-only simulation path against
// the trace-recording one: running without a trace must not change any
// measured outcome.
func TestRunSetMetricsFastPath(t *testing.T) {
	p := GenParams("(2, 2)")
	horizon := p.Horizon()
	for i, base := range gen.Generate(p) {
		sys := gen.WithServer(base, p, sim.PollingServer, 100)
		rFast, err := RunSimulationMetrics(sys, horizon)
		if err != nil {
			t.Fatal(err)
		}
		rFull, err := RunSimulation(sys, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if rFast.Trace != nil {
			t.Fatal("metrics-only run recorded a trace")
		}
		fast := metrics.Summarize(SimEvents(rFast))
		full := metrics.Summarize(SimEvents(rFull))
		if fast != full {
			t.Fatalf("system %d: metrics-only %+v != traced %+v", i, fast, full)
		}
	}
}
