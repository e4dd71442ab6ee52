package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"rtsj/internal/gen"
	"rtsj/internal/harness"
	"rtsj/internal/metrics"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/sim"
)

// CampaignSpec describes a utilization-sweep schedulability campaign: the
// paper's table methodology scaled to populations the tables never reach.
// Each sweep point is a task density; at every point, Systems systems are
// generated index-addressably (gen.SystemAt), simulated metrics-only under
// Policy, and folded into one mergeable metrics.Partial through the
// streaming reducer — each reducer goroutine generates, simulates and
// folds into storage it reuses for its next system, so campaign memory is
// O(worker pool), not O(Systems).
//
// The spec is the wire unit of the shard protocol (it travels inside every
// ShardRequest), so all fields are plain serializable values.
type CampaignSpec struct {
	// Points are the swept task densities (average aperiodic events per
	// server period), in sweep order.
	Points []float64 `json:"points"`
	// Systems is the number of generated systems per sweep point.
	Systems int `json:"systems"`
	// Seed roots every per-index generation stream (gen.SystemAt).
	Seed int64 `json:"seed"`
	// AverageCost and StdDeviation parameterize event costs, in time units.
	AverageCost  float64 `json:"average_cost"`
	StdDeviation float64 `json:"std_deviation"` // cost standard deviation, in time units
	// ServerCapacity and ServerPeriod define the task server, in time units.
	ServerCapacity float64 `json:"server_capacity"`
	ServerPeriod   float64 `json:"server_period"` // server replenishment period, in time units
	// HorizonPeriods is the observation window in server periods.
	HorizonPeriods int `json:"horizon_periods"`
	// Policy is the simulated server policy (campaigns run on the RTSS
	// simulation engine; executions are two orders of magnitude costlier
	// and stay with the tables).
	Policy sim.ServerPolicy `json:"policy"`
}

// DefaultCampaignSpec is the stock utilization sweep: eight density points
// carrying the aperiodic load from 25% to 200% of a DS(4, 6) server's
// bandwidth, crossing saturation mid-sweep.
func DefaultCampaignSpec() CampaignSpec {
	return CampaignSpec{
		Points:         []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4},
		Systems:        1000,
		Seed:           1983,
		AverageCost:    3,
		StdDeviation:   2,
		ServerCapacity: 4,
		ServerPeriod:   6,
		HorizonPeriods: 10,
		Policy:         sim.DeferrableServer,
	}
}

// MaxEventsPerSystem is gen.MaxEventsPerSystem, the bound Validate
// applies to each sweep point. The stock sweep peaks at 40 events per
// system; the bound sits far above any useful sweep.
const MaxEventsPerSystem = gen.MaxEventsPerSystem

// Validate reports structural problems in the spec, including values that
// arrived over the shard protocol from an untrusted coordinator. Each
// sweep point's generation parameters must pass gen.Params.Validate, so
// every float field must be finite.
func (s CampaignSpec) Validate() error {
	if len(s.Points) == 0 {
		return fmt.Errorf("campaign: no sweep points")
	}
	if s.Systems <= 0 {
		return fmt.Errorf("campaign: systems per point must be positive (got %d)", s.Systems)
	}
	for i := range s.Points {
		if err := s.pointParams(i).Validate(); err != nil {
			return fmt.Errorf("campaign: point %d: %v", i, err)
		}
	}
	if s.Policy < sim.NoServer || s.Policy > sim.SlackStealer {
		return fmt.Errorf("campaign: unknown server policy %d", int(s.Policy))
	}
	return nil
}

// pointParams maps one sweep point onto generation parameters. The seed is
// offset by the point index so every sweep point draws an independent
// population: without it, point k and point k' would reuse the same
// per-index streams and correlate their arrival noise.
func (s CampaignSpec) pointParams(point int) gen.Params {
	return gen.Params{
		TaskDensity:    s.Points[point],
		AverageCost:    s.AverageCost,
		StdDeviation:   s.StdDeviation,
		ServerCapacity: s.ServerCapacity,
		ServerPeriod:   s.ServerPeriod,
		Seed:           s.Seed + int64(point)*0x1000003,
		HorizonPeriods: s.HorizonPeriods,
	}
}

// Load returns the aperiodic load a density point offers, as a fraction of
// the processor (density x average cost / server period).
func (s CampaignSpec) Load(density float64) float64 {
	return density * s.AverageCost / s.ServerPeriod
}

// RunCampaignRange computes the partial metrics of systems [lo, hi) of one
// sweep point: the shard work unit. Systems stream through the harness
// reducer — generated from their index, simulated metrics-only and folded
// into the partial in index order — so the range's memory footprint is
// independent of hi-lo.
func RunCampaignRange(s CampaignSpec, point, lo, hi int) (metrics.Partial, error) {
	return runCampaignRange(s, point, lo, hi, nil, newCampaignWorker)
}

// campaignWorker is the state one reducer goroutine reuses for every
// system it runs, in a campaign range or a table cell: the generator
// buffer, the simulator, the event slice of the fold and, built on the
// first executed system, the execution platform. After warm-up a
// simulated system allocates nothing. Whoever makes a worker that may
// execute must close it, since only Shutdown stops the VM's resident
// coroutines.
type campaignWorker struct {
	buf    gen.Buffer
	runner sim.Runner
	events []metrics.Event
	vm     *rtsjvm.VM // nil until the first executed system
}

func newCampaignWorker() *campaignWorker { return new(campaignWorker) }

// simulate runs sys on the worker's Runner and returns its metric events
// in the worker's event slice, which the next simulate overwrites.
func (w *campaignWorker) simulate(sys sim.System, horizon rtime.Time) ([]metrics.Event, error) {
	r, err := w.runner.Run(sys, horizon)
	if err != nil {
		return nil, err
	}
	w.events = metrics.AppendSimEvents(slices.Grow(w.events[:0], len(r.Jobs)), r)
	return w.events, nil
}

// execute runs sys on the worker's VM, built on first use and reset for
// every later system, and returns its metric events in the worker's event
// slice, which the next call overwrites. On error the VM is shut down and
// dropped: the next system gets a fresh one.
func (w *campaignWorker) execute(sys sim.System, m ExecModel, horizon rtime.Time) ([]metrics.Event, error) {
	if w.vm == nil {
		w.vm = rtsjvm.NewVM(nil, m.Overheads, m.execOptions())
	} else {
		w.vm.Reset(nil, m.Overheads, m.execOptions())
	}
	srv, err := runOnVM(w.vm, sys, m, horizon)
	if err != nil {
		w.close()
		return nil, err
	}
	w.events = metrics.AppendRecordEvents(w.events[:0], srv.Records())
	return w.events, nil
}

// close shuts the worker's VM down, if it has one.
func (w *campaignWorker) close() {
	if w.vm != nil {
		w.vm.Shutdown()
		w.vm = nil
	}
}

// system generates, simulates and folds system i of p into a partial of
// its own. The partial is a plain value: nothing in it aliases w.
func (w *campaignWorker) system(p gen.Params, policy sim.ServerPolicy, horizon rtime.Time, i int) (metrics.Partial, error) {
	evs, err := w.simulate(w.buf.WithServer(w.buf.SystemAt(p, i), p, policy, 100), horizon)
	if err != nil {
		return metrics.Partial{}, err
	}
	var one metrics.Partial
	one.AddSystem(evs)
	return one, nil
}

// runCampaignRange is RunCampaignRange drawing its workers from newState,
// with an optional progress tracker, counted from the fold (serialized, in
// index order) as each system's partial merges; a nil one costs a branch.
func runCampaignRange(s CampaignSpec, point, lo, hi int, prog *progressTracker, newState func() *campaignWorker) (metrics.Partial, error) {
	if err := s.Validate(); err != nil {
		return metrics.Partial{}, err
	}
	if point < 0 || point >= len(s.Points) {
		return metrics.Partial{}, fmt.Errorf("campaign: point %d out of range [0, %d)", point, len(s.Points))
	}
	if lo < 0 || hi > s.Systems || lo > hi {
		return metrics.Partial{}, fmt.Errorf("campaign: range [%d, %d) outside [0, %d)", lo, hi, s.Systems)
	}
	p := s.pointParams(point)
	horizon := p.Horizon()
	return harness.ReduceN(0, hi-lo, metrics.Partial{}, newState,
		func(w *campaignWorker, k int) (metrics.Partial, error) {
			return w.system(p, s.Policy, horizon, lo+k)
		},
		func(acc metrics.Partial, _ int, one metrics.Partial) metrics.Partial {
			acc.Merge(one)
			prog.add(1)
			return acc
		})
}

// CurvePoint is one measured point of a schedulability curve.
type CurvePoint struct {
	// Density is the swept task density of this point.
	Density float64 `json:"density"`
	// Load is the offered aperiodic load fraction (CampaignSpec.Load).
	Load float64 `json:"load"`
	// Partial holds the point's merged metrics.
	Partial metrics.Partial `json:"partial"`
}

// Curve is a completed campaign: the schedulability curve over the sweep.
type Curve struct {
	// Spec is the campaign that produced the curve.
	Spec CampaignSpec `json:"spec"`
	// Points are the measured sweep points, in spec order.
	Points []CurvePoint `json:"points"`
}

// RunCampaign runs the whole campaign in-process through the streaming
// reducer. The resulting curve is bit-identical to any sharded run of the
// same spec (see RunCampaignSharded): partials are integer tallies with an
// exact merge, and each point's fold order is fixed by system index.
func RunCampaign(s CampaignSpec) (*Curve, error) {
	return RunCampaignOpts(s, CampaignOptions{})
}

// RunCampaignOpts is RunCampaign with a live progress stream. The curve is
// bit-identical to RunCampaign's — options only add observation, never
// behavior.
func RunCampaignOpts(s CampaignSpec, opts CampaignOptions) (*Curve, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	prog := newProgress(opts.Progress, "campaign", int64(len(s.Points)*s.Systems), nil)
	defer prog.close()
	ws := new(workerSet)
	defer ws.close()
	c := &Curve{Spec: s, Points: make([]CurvePoint, 0, len(s.Points))}
	for i, d := range s.Points {
		part, err := runCampaignRange(s, i, 0, s.Systems, prog, ws.get)
		ws.release()
		if err != nil {
			return nil, fmt.Errorf("campaign point %d (density %v): %w", i, d, err)
		}
		c.Points = append(c.Points, CurvePoint{Density: d, Load: s.Load(d), Partial: part})
	}
	return c, nil
}

// FormatCSV renders the curve as a machine-readable CSV table for
// plotting: a header row, then one row per sweep point. Ratios and
// response times are derived views of the integer partials, printed with
// enough digits to round-trip; the raw tallies ride along so downstream
// tools can re-derive or re-merge.
func (c *Curve) FormatCSV() string {
	var b strings.Builder
	b.WriteString("density,load,schedulable,served,mean_resp_tu,max_resp_tu,systems,events,served_events,interrupted,shed,resp_ticks\n")
	for _, pt := range c.Points {
		p := pt.Partial
		fmt.Fprintf(&b, "%g,%g,%g,%g,%g,%g,%d,%d,%d,%d,%d,%d\n",
			pt.Density, pt.Load, p.ScheduleRatio(), p.ServedRatio(),
			p.MeanResponseTU(), p.MaxResponseTU(),
			p.Systems, p.Events, p.Served, p.Interrupted, p.Shed, p.RespTicks)
	}
	return b.String()
}

// FormatJSON renders the curve as indented JSON: the full spec and the
// per-point integer partials, the lossless machine-readable form (the
// derived ratios are recomputable from the tallies).
func (c *Curve) FormatJSON() (string, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return "", fmt.Errorf("campaign: encode curve: %w", err)
	}
	return string(data) + "\n", nil
}

// Format renders the curve as the campaign's canonical text table. The
// differential tests and the CI smoke compare this output byte for byte
// across in-process, 1-shard and N-shard runs, so it must stay a pure
// function of the curve.
func (c *Curve) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign: policy %v, %d systems/point, seed %d, server (%g, %g), horizon %d periods\n",
		c.Spec.Policy, c.Spec.Systems, c.Spec.Seed,
		c.Spec.ServerCapacity, c.Spec.ServerPeriod, c.Spec.HorizonPeriods)
	fmt.Fprintf(&b, "%-8s %-6s %-12s %-8s %-13s %-12s %s\n",
		"density", "load", "schedulable", "served", "mean-resp-tu", "max-resp-tu", "events")
	for _, pt := range c.Points {
		p := pt.Partial
		fmt.Fprintf(&b, "%-8.2f %-6.2f %-12.4f %-8.4f %-13.4f %-12.4f %d\n",
			pt.Density, pt.Load, p.ScheduleRatio(), p.ServedRatio(),
			p.MeanResponseTU(), p.MaxResponseTU(), p.Events)
	}
	return b.String()
}
