package experiments

import (
	"fmt"

	"rtsj/internal/rtime"
	"rtsj/internal/sim"
	"rtsj/internal/trace"
)

// ScenarioSpec is one of the paper's three worked examples (Table 1 task
// set; Figures 2-4).
type ScenarioSpec struct {
	Number     int     // scenario number (1-3); the figure is Number+1
	Fire1      float64 // e1 fire instant (tu)
	Fire2      float64 // e2 fire instant (tu)
	H2Declared float64 // h2's declared cost (scenario 3 declares 1)
	H2Actual   float64 // h2's actual cost (tu)
	HorizonTU  float64 // diagram window (tu)
	Caption    string  // one-line description, as printed by cmd/scenarios
}

// Scenarios are the paper's three scenarios.
var Scenarios = []ScenarioSpec{
	{1, 0, 6, 2, 2, 12, "e1 and e2 fired at 0 and 6: both handlers served immediately with full capacity"},
	{2, 2, 4, 2, 2, 18, "e1 and e2 fired at 2 and 4: h2 does not start at 8 (remaining capacity 1 < cost 2)"},
	{3, 2, 4, 1, 2, 18, "h2 declared with cost 1: starts at 8, interrupted at 9 when the capacity is consumed"},
}

// System builds the Table 1 workload for a scenario under the given server
// policy.
func (s ScenarioSpec) System(policy sim.ServerPolicy) sim.System {
	return sim.System{
		Periodics: []sim.PeriodicTask{
			{Name: "tau1", Period: rtime.TUs(6), Cost: rtime.TUs(2), Priority: 2},
			{Name: "tau2", Period: rtime.TUs(6), Cost: rtime.TUs(1), Priority: 1},
		},
		Aperiodics: []sim.AperiodicJob{
			{Name: "h1", Release: rtime.AtTU(s.Fire1), Cost: rtime.TUs(2)},
			{Name: "h2", Release: rtime.AtTU(s.Fire2),
				Cost: rtime.TUs(s.H2Actual), Declared: rtime.TUs(s.H2Declared)},
		},
		Server: &sim.ServerSpec{Name: "PS", Policy: policy,
			Capacity: rtime.TUs(3), Period: rtime.TUs(6), Priority: 10},
	}
}

// Figure is one regenerated temporal diagram.
type Figure struct {
	Scenario ScenarioSpec // the scenario the figure renders
	// ExecGantt is the framework execution (what the paper's figure
	// shows); IdealGantt is the literature-policy simulation the paper
	// contrasts it with in the text.
	ExecGantt  string
	IdealGantt string   // the ideal literature-policy schedule
	Events     []string // per-event outcome lines
}

// RunFigures regenerates several figures, in the given order
// (RunFigures(1, 2, 3) is the paper's full set).
func RunFigures(ns ...int) ([]*Figure, error) {
	figs := make([]*Figure, 0, len(ns))
	for _, n := range ns {
		fig, err := RunFigure(n)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// RunFigure regenerates the figure for scenario n (1-3): the framework
// execution and the ideal-policy simulation it is contrasted with.
func RunFigure(n int) (*Figure, error) {
	if n < 1 || n > len(Scenarios) {
		return nil, fmt.Errorf("experiments: no scenario %d", n)
	}
	spec := Scenarios[n-1]
	horizon := rtime.AtTU(spec.HorizonTU)
	opts := trace.GanttOptions{Until: horizon}

	o, err := RunExecution(spec.System(sim.LimitedPollingServer), ZeroExecModel(), horizon)
	if err != nil {
		return nil, err
	}
	rIdeal, err := RunSimulation(spec.System(sim.PollingServer), horizon)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Scenario:   spec,
		ExecGantt:  o.Trace.Gantt(opts),
		IdealGantt: rIdeal.Trace.Gantt(opts),
	}
	for _, rec := range o.Records {
		switch {
		case rec.Served:
			fig.Events = append(fig.Events, fmt.Sprintf(
				"%s: released %v, served [%v, %v), response %v",
				rec.Handler, rec.Released.TUs(), rec.Started.TUs(), rec.Finished.TUs(),
				rec.Response()))
		case rec.Interrupted:
			fig.Events = append(fig.Events, fmt.Sprintf(
				"%s: released %v, started %v, INTERRUPTED at %v",
				rec.Handler, rec.Released.TUs(), rec.Started.TUs(), rec.Finished.TUs()))
		default:
			fig.Events = append(fig.Events, fmt.Sprintf(
				"%s: released %v, never served", rec.Handler, rec.Released.TUs()))
		}
	}
	return fig, nil
}
