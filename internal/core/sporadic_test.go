package core

import (
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/trace"
)

func buildSS(t *testing.T, capTU, periodTU float64) (*rtsjvm.VM, *SporadicTaskServer, func(name string, cost, fire float64)) {
	t.Helper()
	vm := rtsjvm.NewVM(trace.New(), rtsjvm.Overheads{}, exec.Options{})
	srv := NewSporadicTaskServer(vm, "SS", 10,
		NewTaskServerParameters(0, tu(capTU), tu(periodTU)))
	fire := func(name string, cost, fire float64) {
		h := NewServableAsyncEventHandler(srv, name, tu(cost))
		e := NewServableAsyncEvent(vm, name)
		e.AddServableHandler(h)
		vm.NewOneShotTimer(at(fire), e, name).Start()
	}
	return vm, srv, fire
}

// The defining SS behaviour: consumed capacity returns one period after
// the serving burst began — not at fixed period boundaries.
func TestSporadicServerReplenishment(t *testing.T) {
	vm, srv, fire := buildSS(t, 2, 5)
	fire("a1", 2, 1)
	fire("a2", 2, 4)
	if err := vm.Run(at(20)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	// a1 consumes the full capacity [1,3); replenishment of 2 at 1+5=6;
	// a2 (arrived at 4) waits and is served [6,8).
	checkSegments(t, vm.Trace(), "SS", []seg{{1, 3, "a1"}, {6, 8, "a2"}})
	for _, rec := range srv.Records() {
		if !rec.Served {
			t.Errorf("%s unserved", rec.Handler)
		}
	}
}

// Partial bursts replenish exactly what they consumed.
func TestSporadicServerPartialReplenishment(t *testing.T) {
	vm, srv, fire := buildSS(t, 2, 5)
	fire("a1", 1, 1) // burst [1,2): replenish 1 at 6
	fire("a2", 2, 3) // cost 2 > remaining 1: waits for the replenishment
	if err := vm.Run(at(20)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	checkSegments(t, vm.Trace(), "SS", []seg{{1, 2, "a1"}, {6, 8, "a2"}})
	_ = srv
}

// Immediate service while capacity lasts: the SS reacts like a DS on
// arrival (no polling delay).
func TestSporadicServerImmediateService(t *testing.T) {
	vm, srv, fire := buildSS(t, 3, 10)
	fire("a1", 1, 2.5)
	fire("a2", 1, 4)
	if err := vm.Run(at(20)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	checkSegments(t, vm.Trace(), "SS", []seg{{2.5, 3.5, "a1"}, {4, 5, "a2"}})
	recs := srv.Records()
	if recs[0].Response() != tu(1) || recs[1].Response() != tu(1) {
		t.Errorf("responses: %v %v", recs[0].Response(), recs[1].Response())
	}
}

// Two separate bursts create two separate replenishments.
func TestSporadicServerTwoBursts(t *testing.T) {
	vm, _, fire := buildSS(t, 2, 6)
	fire("a1", 1, 0) // burst at 0: repl 1 at 6
	fire("a2", 1, 2) // burst at 2: repl 1 at 8
	fire("a3", 2, 3) // capacity exhausted: needs both replenishments
	if err := vm.Run(at(30)); err != nil {
		t.Fatal(err)
	}
	vm.Shutdown()
	// a3 needs 2 units; capacity is 1 at t=6 and 2 at t=8: served [8,10).
	checkSegments(t, vm.Trace(), "SS", []seg{{0, 1, "a1"}, {2, 3, "a2"}, {8, 10, "a3"}})
}

// The SS analyzes like a plain periodic task: its interference matches the
// polling server's, not the DS double hit.
func TestSporadicServerInterference(t *testing.T) {
	vm := rtsjvm.NewVM(nil, rtsjvm.Overheads{}, exec.Options{})
	srv := NewSporadicTaskServer(vm, "SS", 10, NewTaskServerParameters(0, tu(2), tu(5)))
	if got := srv.Interference(tu(10)); got != tu(4) {
		t.Errorf("interference over 10tu = %v, want 4tu", got)
	}
	low := vm.NewRealtimeThread("low", 1, &rtsjvm.PeriodicParameters{Period: tu(10), Cost: tu(2)},
		func(r *rtsjvm.RTC) {})
	s := vm.Scheduler()
	s.AddToFeasibility(srv)
	s.AddToFeasibility(low)
	for _, r := range s.ResponseTimes() {
		if r.Name == "low" && r.R != tu(4) {
			t.Errorf("low under SS R = %v, want 4tu (periodic-equivalent)", r.R)
		}
	}
	vm.Shutdown()
}
