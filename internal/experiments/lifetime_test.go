package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"rtsj/internal/harness"
	"rtsj/internal/sim"
)

// TestWorkersDoNotOutliveTheirCall requires every goroutine a table
// fan-out starts — harness helpers and the coroutine workers of each
// campaignWorker's VM — to be gone once the call returns, on success and
// on error. A VM's workers are parked coroutines that the garbage
// collector never reclaims, so one not shut down leaks for good.
func TestWorkersDoNotOutliveTheirCall(t *testing.T) {
	defer harness.SetWorkers(0)
	harness.SetWorkers(4)
	base := runtime.NumGoroutine()
	settled := func(call string) {
		t.Helper()
		// A helper goroutine may still be exiting when its call returns.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines after the call, %d before", call, n, base)
		}
	}

	if _, err := RunTables(TableIDs); err != nil {
		t.Fatal(err)
	}
	settled("RunTables")
	if _, err := RunSet("(3, 2)", sim.LimitedDeferrableServer, Execution, DefaultExecModel()); err != nil {
		t.Fatal(err)
	}
	settled("RunSet execution")
	if _, err := RunSet("(3, 2)", sim.DeferrableServer, Simulation, ExecModel{}); err != nil {
		t.Fatal(err)
	}
	settled("RunSet simulation")
	if _, err := RunPolicyMatrix(); err != nil {
		t.Fatal(err)
	}
	settled("RunPolicyMatrix")
	// The priority exchange server has no framework implementation: the
	// first executed system fails, after its worker built a VM.
	_, err := RunSet("(2, 2)", sim.PriorityExchange, Execution, DefaultExecModel())
	if err == nil || !strings.Contains(err.Error(), "no framework implementation") {
		t.Fatalf("RunSet under %v: err = %v, want no framework implementation", sim.PriorityExchange, err)
	}
	settled("RunSet execution error")
}
