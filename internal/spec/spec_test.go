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

// TestParseBoundsWorkload checks Parse rejects a file that asks for more
// jobs than gen.MaxEventsPerSystem or declares a CPU count (specs run on
// one CPU), and accepts the job limit exactly.
func TestParseBoundsWorkload(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      string // substring of the error; "" means valid
	}{
		{"1e9 periodic jobs", "policy fp\nperiodic tau1 0.001 0.0005 prio=2\nhorizon 1000000\n", "more than 100000 jobs"},
		{"periodic plus aperiodic", "periodic tau1 1 0.5\naperiodic J1 0 0.1\nhorizon 100000\n", "more than 100000 jobs"},
		{"negative offset", "periodic tau1 1 0.5 offset=-9e12\nhorizon 9e12\n", "more than 100000 jobs"},
		{"cpus directive", "cpus 2\nperiodic tau1 6 2\n", "line 1: cpus is not supported: specs run on one CPU"},
		{"exactly the job limit", "periodic tau1 1 0.5\nhorizon 100000\n", ""},
		{"releases at or past the horizon", "periodic tau1 1 0.5 offset=200000\nhorizon 100000\n", ""},
	} {
		_, err := Parse(strings.NewReader(c.src))
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
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
