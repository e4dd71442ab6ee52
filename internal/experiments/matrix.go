package experiments

import (
	"fmt"
	"strings"

	"rtsj/internal/metrics"
	"rtsj/internal/sim"
)

// PolicyMatrix is an extension experiment beyond the paper's Tables 2-5:
// the same six generated sets, simulated under every aperiodic servicing
// policy RTSS implements — the two the paper evaluates (PS, DS), the three
// families it cites (SS, PE, slack stealing) and the background baseline.
type PolicyMatrix struct {
	Policies []sim.ServerPolicy // row order of the matrix
	// Cells[policy][set] holds the per-set summary.
	Cells map[sim.ServerPolicy]map[string]metrics.SetSummary
}

// MatrixPolicies is the default policy list of the extension experiment.
var MatrixPolicies = []sim.ServerPolicy{
	sim.NoServer, sim.PollingServer, sim.DeferrableServer,
	sim.SporadicServer, sim.PriorityExchange, sim.SlackStealer,
}

// RunPolicyMatrix simulates every set under every policy. The generated
// systems carry no periodic tasks (the paper's sets), so the slack stealer
// sees unbounded slack and acts as an immediate-service upper baseline
// while background acts as a FIFO baseline.
//
// The policy x set grid runs as one runCells fan-out over every cell's
// systems; cells aggregate in system order, so the resulting matrix is
// bit-identical for any worker count.
func RunPolicyMatrix() (*PolicyMatrix, error) {
	m := &PolicyMatrix{
		Policies: MatrixPolicies,
		Cells:    make(map[sim.ServerPolicy]map[string]metrics.SetSummary),
	}
	var cells []tableCell
	for _, pol := range m.Policies {
		for _, key := range SetKeys {
			cells = append(cells, tableCell{key: key, policy: pol, mode: Simulation})
		}
	}
	sums, err := runCells(cells, ExecModel{}, func(c tableCell, err error) error {
		return fmt.Errorf("matrix %v %s: %v", c.policy, c.key, err)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		if m.Cells[c.policy] == nil {
			m.Cells[c.policy] = make(map[string]metrics.SetSummary)
		}
		m.Cells[c.policy][c.key] = sums[i]
	}
	return m, nil
}

// Format renders the matrix (AART and ASR per cell).
func (m *PolicyMatrix) Format() string {
	var b strings.Builder
	b.WriteString("Extension experiment: every servicing policy on the paper's six sets\n")
	b.WriteString("cell = AART (tu) / ASR\n\n")
	fmt.Fprintf(&b, "%-7s", "policy")
	for _, key := range SetKeys {
		fmt.Fprintf(&b, " %13s", key)
	}
	b.WriteByte('\n')
	for _, pol := range m.Policies {
		fmt.Fprintf(&b, "%-7s", pol)
		for _, key := range SetKeys {
			c := m.Cells[pol][key]
			fmt.Fprintf(&b, " %7.2f/%5.2f", c.AART, c.ASR)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
