package experiments

import (
	"fmt"
	"strings"

	"rtsj/internal/gen"
	"rtsj/internal/harness"
	"rtsj/internal/metrics"
	"rtsj/internal/sim"
)

// Cell is one (AART, AIR, ASR) triple of a table.
type Cell struct {
	AART float64 // average aperiodic response time, in time units
	AIR  float64 // aperiodic interruption ratio
	ASR  float64 // aperiodic service ratio
}

// SetKeys are the six generated sets, keyed "(density, stddev)" as in the
// paper's table headers.
var SetKeys = []string{"(1, 0)", "(2, 0)", "(3, 0)", "(1, 2)", "(2, 2)", "(3, 2)"}

// setTuple maps a key to its generation parameters.
var setTuples = map[string]struct{ density, sd float64 }{
	"(1, 0)": {1, 0}, "(2, 0)": {2, 0}, "(3, 0)": {3, 0},
	"(1, 2)": {1, 2}, "(2, 2)": {2, 2}, "(3, 2)": {3, 2},
}

// GenParams returns the generation parameters of one set: the paper's tuple
// (density, 3, sd, 4, 6, 10, 1983) observed for ten server periods.
func GenParams(key string) gen.Params {
	t, ok := setTuples[key]
	if !ok {
		panic("experiments: unknown set key " + key)
	}
	return gen.Params{
		TaskDensity:    t.density,
		AverageCost:    3,
		StdDeviation:   t.sd,
		ServerCapacity: 4,
		ServerPeriod:   6,
		NbGeneration:   10,
		Seed:           1983,
		HorizonPeriods: 10,
	}
}

// Paper reference values, straight from Tables 2-5.
var (
	PaperTable2 = map[string]Cell{
		"(1, 0)": {8.86, 0.00, 0.89}, "(2, 0)": {17.52, 0.00, 0.63}, "(3, 0)": {23.76, 0.00, 0.43},
		"(1, 2)": {10.24, 0.00, 0.85}, "(2, 2)": {20.58, 0.00, 0.50}, "(3, 2)": {25.50, 0.00, 0.35},
	}
	PaperTable3 = map[string]Cell{
		"(1, 0)": {12.24, 0.01, 0.75}, "(2, 0)": {20.80, 0.01, 0.44}, "(3, 0)": {25.05, 0.00, 0.30},
		"(1, 2)": {6.55, 0.17, 0.48}, "(2, 2)": {7.15, 0.24, 0.34}, "(3, 2)": {12.54, 0.29, 0.30},
	}
	PaperTable4 = map[string]Cell{
		"(1, 0)": {5.30, 0.00, 0.94}, "(2, 0)": {13.44, 0.00, 0.67}, "(3, 0)": {19.83, 0.00, 0.46},
		"(1, 2)": {6.36, 0.00, 0.94}, "(2, 2)": {17.40, 0.00, 0.56}, "(3, 2)": {21.71, 0.00, 0.38},
	}
	PaperTable5 = map[string]Cell{
		"(1, 0)": {6.90, 0.00, 0.84}, "(2, 0)": {14.55, 0.00, 0.56}, "(3, 0)": {20.58, 0.00, 0.39},
		"(1, 2)": {8.02, 0.14, 0.66}, "(2, 2)": {13.47, 0.26, 0.43}, "(3, 2)": {16.91, 0.27, 0.30},
	}
)

// Table is one regenerated measurement table.
type Table struct {
	ID       string          // paper table number ("2"-"5")
	Title    string          // paper caption
	Measured map[string]Cell // regenerated cells, keyed by SetKeys
	Paper    map[string]Cell // the paper's published values
}

// Mode selects simulation (ideal policy on RTSS) or execution (framework on
// the RTSJ emulation).
type Mode int

// Experiment modes.
const (
	Simulation Mode = iota
	Execution
)

// RunSet measures one generated set under a policy and mode, returning the
// per-set averages. The generated systems are independent work units: they
// are fanned across the harness worker pool, each worker simulating on
// its own reused campaignWorker, and the summaries are folded in system
// order, which keeps the result bit-identical to a serial run for any
// worker count.
func RunSet(key string, policy sim.ServerPolicy, mode Mode, model ExecModel) (metrics.SetSummary, error) {
	p := GenParams(key)
	systems := gen.Generate(p)
	summaries, err := harness.ReduceN(0, len(systems), make([]metrics.Summary, len(systems)), newCampaignWorker,
		func(w *campaignWorker, i int) (metrics.Summary, error) {
			return w.setSystem(p, systems[i], i, policy, mode, model)
		},
		func(out []metrics.Summary, i int, s metrics.Summary) []metrics.Summary { out[i] = s; return out })
	if err != nil {
		return metrics.SetSummary{}, err
	}
	return metrics.Aggregate(summaries), nil
}

// setSystem measures system i of a set generated from p: base with the
// policy's server attached, simulated on the worker's Runner or executed
// on a fresh VM. The summary is a plain value: nothing in it aliases w.
func (w *campaignWorker) setSystem(p gen.Params, base sim.System, i int, policy sim.ServerPolicy, mode Mode, model ExecModel) (metrics.Summary, error) {
	sys := w.buf.WithServer(base, p, policy, 100)
	var evs []metrics.Event
	switch mode {
	case Simulation:
		var err error
		if evs, err = w.simulate(sys, p.Horizon()); err != nil {
			return metrics.Summary{}, err
		}
	case Execution:
		model.SysIndex = i
		o, err := RunExecutionMetrics(sys, model, p.Horizon())
		if err != nil {
			return metrics.Summary{}, err
		}
		evs = ExecEvents(o)
	}
	return metrics.Summarize(evs), nil
}

// tableSpec wires each table number to its policy, mode and references.
var tableSpecs = map[string]struct {
	title  string
	policy sim.ServerPolicy
	mode   Mode
	paper  map[string]Cell
}{
	"2": {"Measures on Polling Server simulations", sim.PollingServer, Simulation, PaperTable2},
	"3": {"Measures on Polling Server executions", sim.LimitedPollingServer, Execution, PaperTable3},
	"4": {"Measures on Deferrable Server simulations", sim.DeferrableServer, Simulation, PaperTable4},
	"5": {"Measures on Deferrable Server executions", sim.LimitedDeferrableServer, Execution, PaperTable5},
}

// RunTable regenerates one of the paper's Tables 2-5, fanning the six set
// cells across the harness worker pool.
func RunTable(id string) (*Table, error) {
	spec, ok := tableSpecs[id]
	if !ok {
		return nil, fmt.Errorf("experiments: no table %q (have 2-5)", id)
	}
	t := &Table{ID: id, Title: spec.title, Paper: spec.paper, Measured: make(map[string]Cell)}
	model := DefaultExecModel()
	cells, err := harness.Map(0, SetKeys, func(_ int, key string) (Cell, error) {
		s, err := RunSet(key, spec.policy, spec.mode, model)
		if err != nil {
			return Cell{}, fmt.Errorf("table %s, set %s: %v", id, key, err)
		}
		return Cell{AART: s.AART, AIR: s.AIR, ASR: s.ASR}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, key := range SetKeys {
		t.Measured[key] = cells[i]
	}
	return t, nil
}

// TableIDs lists the paper's measurement tables.
var TableIDs = []string{"2", "3", "4", "5"}

// RunTables regenerates several tables concurrently (the full evaluation
// when ids is TableIDs), preserving the requested order.
func RunTables(ids []string) ([]*Table, error) {
	return harness.Map(0, ids, func(_ int, id string) (*Table, error) {
		return RunTable(id)
	})
}

// Format renders the table with measured-vs-paper rows.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-10s %18s %18s %18s\n", "set", "AART (ours/paper)", "AIR (ours/paper)", "ASR (ours/paper)")
	for _, key := range SetKeys {
		m := t.Measured[key]
		p := t.Paper[key]
		fmt.Fprintf(&b, "%-10s %8.2f /%8.2f %8.2f /%8.2f %8.2f /%8.2f\n",
			key, m.AART, p.AART, m.AIR, p.AIR, m.ASR, p.ASR)
	}
	return b.String()
}
