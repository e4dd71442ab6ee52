package spec

import (
	"strings"
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

const sample = `
# Table 1 task set
policy fp
horizon 18tu
cpus 2
server ps-lim 3 6 prio=10
periodic tau1 6 2 prio=2
periodic tau2 6 1 prio=1
aperiodic h1 2 2
aperiodic h2 4 2 declared=1
`

func TestParseSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.Policy != FP {
		t.Error("policy")
	}
	if f.Horizon != rtime.AtTU(18) {
		t.Errorf("horizon = %v", f.Horizon)
	}
	if f.CPUs != 2 {
		t.Errorf("cpus = %d", f.CPUs)
	}
	if f.System.Server == nil || f.System.Server.Policy != sim.LimitedPollingServer ||
		f.System.Server.Capacity != rtime.TUs(3) || f.System.Server.Priority != 10 {
		t.Errorf("server: %+v", f.System.Server)
	}
	if len(f.System.Periodics) != 2 || f.System.Periodics[0].Priority != 2 {
		t.Errorf("periodics: %+v", f.System.Periodics)
	}
	if len(f.System.Aperiodics) != 2 {
		t.Fatalf("aperiodics: %+v", f.System.Aperiodics)
	}
	h2 := f.System.Aperiodics[1]
	if h2.Declared != rtime.TUs(1) || h2.Cost != rtime.TUs(2) {
		t.Errorf("h2: %+v", h2)
	}
}

func TestParsePolicies(t *testing.T) {
	for in, want := range map[string]PolicyKind{"fp": FP, "edf": EDF, "dover": DOver, "d-over": DOver} {
		f, err := Parse(strings.NewReader("policy " + in))
		if err != nil {
			t.Fatal(err)
		}
		if f.Policy != want {
			t.Errorf("policy %s = %d", in, f.Policy)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"policy nope",
		"policy",
		"server xx 3 6",
		"server ps 3",
		"server ps x 6",
		"periodic t1 6",
		"periodic t1 abc 2",
		"aperiodic j 0",
		"aperiodic j 0 2 bogus",
		"aperiodic j 0 2 bogus=1",
		"horizon",
		"horizon xyz",
		"frobnicate 1 2",
		"cpus",
		"cpus zero",
		"cpus 0",
		"cpus -1",
		"periodic t1 6 2 prio=abc",
		"aperiodic j 0 2 value=abc",
		"periodic t1 1 5", // cost > period fails validation
		"faults seed=1 overrun=1:Inf",
		"faults drop=NaN",
	}
	for _, in := range bad {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	f, err := Parse(strings.NewReader("\n# only comments\n  \nperiodic a 5 1 # trailing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.System.Periodics) != 1 {
		t.Fatal("periodic not parsed")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	out := Format(f)
	g, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if g.Horizon != f.Horizon || g.Policy != f.Policy {
		t.Error("header round trip")
	}
	if g.CPUs != f.CPUs {
		t.Errorf("cpus lost in round trip: %d vs %d", g.CPUs, f.CPUs)
	}
	if len(g.System.Periodics) != len(f.System.Periodics) ||
		len(g.System.Aperiodics) != len(f.System.Aperiodics) {
		t.Error("body round trip")
	}
	if g.System.Aperiodics[1].Declared != f.System.Aperiodics[1].Declared {
		t.Error("declared lost in round trip")
	}
	if g.System.Server.Policy != f.System.Server.Policy {
		t.Error("server lost in round trip")
	}
}

func TestParsedSystemRuns(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(f.System, sim.NewFP(f.System, nil), f.Horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Aperiodics()) != 2 {
		t.Fatal("wrong job count")
	}
}
