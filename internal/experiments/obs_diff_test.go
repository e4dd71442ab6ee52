package experiments

import (
	"bytes"
	"io"
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/harness"
	"rtsj/internal/obs"
	"rtsj/internal/sim"
)

// The observational-only contract, pinned end to end: enabling every
// stats layer (exec kernel counters, harness pool gauges, shard worker
// instruments, progress reporting) must leave each result surface
// byte-identical to a run with observation off.

// An execution-mode table set — the costliest surface, crossing the VM,
// the executive and the harness — yields the same summary with exec and
// harness stats enabled.
func TestObsStatsDoNotChangeTableResults(t *testing.T) {
	base, err := RunSet(SetKeys[0], sim.LimitedDeferrableServer, Execution, DefaultExecModel())
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	harness.SetStats(harness.NewStats(reg))
	defer harness.SetStats(nil)
	model := DefaultExecModel()
	model.Stats = exec.NewStats(reg)
	withStats, err := RunSet(SetKeys[0], sim.LimitedDeferrableServer, Execution, model)
	if err != nil {
		t.Fatal(err)
	}

	if base != withStats {
		t.Errorf("set summary changed with stats on:\nbase %+v\nwith %+v", base, withStats)
	}
	if reg.Map()["exec.context_switches"] <= 0 {
		t.Errorf("exec.context_switches = %d, want > 0 — stats were not actually wired", reg.Map()["exec.context_switches"])
	}
}

// A campaign with a live progress stream renders the exact bytes of the
// plain run, and the progress lines all go to their own writer.
func TestObsProgressDoesNotChangeCampaignOutput(t *testing.T) {
	s := DefaultCampaignSpec()
	s.Points = []float64{1, 2}
	s.Systems = 30
	s.HorizonPeriods = 4

	base, err := RunCampaign(s)
	if err != nil {
		t.Fatal(err)
	}

	var progress bytes.Buffer
	withObs, err := RunCampaignOpts(s, CampaignOptions{Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}

	if base.Format() != withObs.Format() {
		t.Errorf("curve changed with observation on:\nbase:\n%s\nwith:\n%s", base.Format(), withObs.Format())
	}
	if progress.Len() == 0 {
		t.Error("no progress output on the progress writer")
	}
}

// A sharded campaign with progress on and stats on its workers merges the
// identical curve, and the workers count every request the batch split
// implies and every system.
func TestObsShardedCampaignWithStats(t *testing.T) {
	s := DefaultCampaignSpec()
	s.Points = []float64{1, 2}
	s.Systems = 30
	s.HorizonPeriods = 4

	base, err := RunCampaign(s)
	if err != nil {
		t.Fatal(err)
	}

	workerReg := obs.NewRegistry()
	shards := make([]ShardConn, 2)
	for i := range shards {
		reqR, reqW := io.Pipe()
		respR, respW := io.Pipe()
		st := NewShardStats(workerReg)
		go func() { _ = ServeShardStats(reqR, respW, st) }()
		shards[i] = ShardConn{R: respR, W: reqW}
	}

	var progress bytes.Buffer
	got, err := RunCampaignShardedOpts(s, shards, 7, CampaignOptions{Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	if base.Format() != got.Format() {
		t.Errorf("sharded curve differs with observation on:\nbase:\n%s\ngot:\n%s", base.Format(), got.Format())
	}
	wm := workerReg.Map()
	// One request per chunk: each of the 2 points splits into ⌈30/7⌉ = 5
	// ranges.
	const wantRequests = 10
	if wm["shard.requests"] != wantRequests {
		t.Errorf("shard.requests = %d, want %d", wm["shard.requests"], wantRequests)
	}
	if wm["shard.systems"] != int64(len(s.Points)*s.Systems) {
		t.Errorf("shard.systems = %d, want %d", wm["shard.systems"], len(s.Points)*s.Systems)
	}
	if progress.Len() == 0 {
		t.Error("no progress output on the progress writer")
	}
}
