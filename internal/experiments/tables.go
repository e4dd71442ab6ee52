package experiments

import (
	"fmt"
	"strings"
	"sync"

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
// per-set averages. It is a one-cell runCells: the set's systems fan out
// across the harness worker pool and fold in system order.
func RunSet(key string, policy sim.ServerPolicy, mode Mode, model ExecModel) (metrics.SetSummary, error) {
	sums, err := runCells([]tableCell{{key: key, policy: policy, mode: mode}}, model, nil)
	if err != nil {
		return metrics.SetSummary{}, err
	}
	return sums[0], nil
}

// tableCell is one (set, policy, mode) cell of a table or of the policy
// matrix.
type tableCell struct {
	table  string // the table the cell belongs to, for error context
	key    string
	policy sim.ServerPolicy
	mode   Mode
}

// workerSet keeps campaignWorkers warm across ReduceN calls: get, as
// newState, hands out its workers in turn and builds one when all are out;
// release takes them back after each call; close shuts their VMs down.
type workerSet struct {
	mu   sync.Mutex
	all  []*campaignWorker
	used int // workers handed out since the last release
}

func (ws *workerSet) get() *campaignWorker {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.used++; ws.used > len(ws.all) {
		ws.all = append(ws.all, newCampaignWorker())
	}
	return ws.all[ws.used-1]
}

func (ws *workerSet) release() { ws.used = 0 }

func (ws *workerSet) close() {
	for _, w := range ws.all {
		w.close()
	}
}

// runCells measures every cell in one fan-out over all their systems. Each
// distinct set is generated once. Every harness worker runs its share of
// the cells × systems units on one campaignWorker of a workerSet, closed
// once the fan-out returns, so its gen buffer, sim.Runner and VM carry over
// from unit to unit and cell to cell. The fold stores each system's summary
// under its cell, and each cell aggregates its summaries in system order,
// so every cell is bit-identical to a serial run for any worker count.
// wrap, when non-nil, adds the failing cell's context to an error.
func runCells(cells []tableCell, model ExecModel, wrap func(c tableCell, err error) error) ([]metrics.SetSummary, error) {
	type set struct {
		p       gen.Params
		systems []sim.System
	}
	sets := make(map[string]*set, len(SetKeys))
	cellSets := make([]*set, len(cells))
	type unit struct{ cell, sys int }
	var units []unit
	sums := make([][]metrics.Summary, len(cells))
	for c, cell := range cells {
		st := sets[cell.key]
		if st == nil {
			p := GenParams(cell.key)
			st = &set{p, gen.Generate(p)}
			sets[cell.key] = st
		}
		cellSets[c] = st
		sums[c] = make([]metrics.Summary, len(st.systems))
		for i := range st.systems {
			units = append(units, unit{c, i})
		}
	}
	ws := new(workerSet)
	defer ws.close()
	_, err := harness.ReduceN(0, len(units), sums, ws.get,
		func(w *campaignWorker, u int) (metrics.Summary, error) {
			c, i := units[u].cell, units[u].sys
			st := cellSets[c]
			s, err := w.setSystem(st.p, st.systems[i], i, cells[c].policy, cells[c].mode, model)
			if err != nil && wrap != nil {
				err = wrap(cells[c], err)
			}
			return s, err
		},
		func(out [][]metrics.Summary, u int, s metrics.Summary) [][]metrics.Summary {
			out[units[u].cell][units[u].sys] = s
			return out
		})
	if err != nil {
		return nil, err
	}
	out := make([]metrics.SetSummary, len(cells))
	for c := range cells {
		out[c] = metrics.Aggregate(sums[c])
	}
	return out, nil
}

// setSystem measures system i of a set generated from p: base with the
// policy's server attached, simulated on the worker's Runner or executed
// on the worker's VM. The summary is a plain value: nothing in it aliases
// w.
func (w *campaignWorker) setSystem(p gen.Params, base sim.System, i int, policy sim.ServerPolicy, mode Mode, model ExecModel) (metrics.Summary, error) {
	sys := w.buf.WithServer(base, p, policy, 100)
	var evs []metrics.Event
	var err error
	switch mode {
	case Simulation:
		evs, err = w.simulate(sys, p.Horizon())
	case Execution:
		model.SysIndex = i
		evs, err = w.execute(sys, model, p.Horizon())
	}
	if err != nil {
		return metrics.Summary{}, err
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

// RunTable regenerates one of the paper's Tables 2-5.
func RunTable(id string) (*Table, error) {
	tabs, err := RunTables([]string{id})
	if err != nil {
		return nil, err
	}
	return tabs[0], nil
}

// TableIDs lists the paper's measurement tables.
var TableIDs = []string{"2", "3", "4", "5"}

// RunTables regenerates several tables (the full evaluation when ids is
// TableIDs), preserving the requested order. Every (table, set) cell runs
// in one runCells fan-out, so each set is generated once and each worker
// keeps one execution platform across all the tables.
func RunTables(ids []string) ([]*Table, error) {
	var cells []tableCell
	for _, id := range ids {
		spec, ok := tableSpecs[id]
		if !ok {
			return nil, fmt.Errorf("experiments: no table %q (have 2-5)", id)
		}
		for _, key := range SetKeys {
			cells = append(cells, tableCell{table: id, key: key, policy: spec.policy, mode: spec.mode})
		}
	}
	sums, err := runCells(cells, DefaultExecModel(), func(c tableCell, err error) error {
		return fmt.Errorf("table %s, set %s: %v", c.table, c.key, err)
	})
	if err != nil {
		return nil, err
	}
	tabs := make([]*Table, len(ids))
	for t, id := range ids {
		spec := tableSpecs[id]
		tab := &Table{ID: id, Title: spec.title, Paper: spec.paper, Measured: make(map[string]Cell, len(SetKeys))}
		for k, key := range SetKeys {
			s := sums[t*len(SetKeys)+k]
			tab.Measured[key] = Cell{AART: s.AART, AIR: s.AIR, ASR: s.ASR}
		}
		tabs[t] = tab
	}
	return tabs, nil
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
