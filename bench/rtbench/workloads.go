package main

import (
	_ "embed"
	"errors"
	"fmt"
	"strings"
	"time"

	"rtsj/internal/experiments"
)

// workload is one named input set of the benchmark. setup builds the
// session a child measures; open adds the untimed warm-up op.
type workload struct {
	name  string
	setup func(seed int64) (*session, error)
}

// The workloads stress different layers, so that a change to one layer
// has a workload that exercises it and one that bypasses it:
//   - tables: the paper's Tables 2-5, where the execution side (exec,
//     rtsjvm, core) takes most of the time in many small, short-lived VMs;
//   - campaign: the simulation side alone (gen, sim, metrics, harness),
//     the no-change control for executive and wire changes;
//   - sharded: the same simulation work behind the shard wire, the one
//     workload where JSON encoding and TCP round trips matter;
//   - flood: one large, long-lived executive (pool, ready and timer heaps
//     at scale, activation dispatch), with gen, sim and the wire idle.
var workloads = []workload{
	{"tables", setupTables},
	{"campaign", setupCampaign},
	{"sharded", setupSharded},
	{"flood", setupFlood},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// session is a set-up workload.
type session struct {
	// units is the work one op completes: evaluated systems for tables,
	// simulated systems for campaign and sharded, stress jobs plus
	// steady-state activations for flood.
	units int
	// op makes one closed-loop call and checks its output. It returns the
	// time spent inside the public call alone.
	op func() (time.Duration, error)
	// final, when set, compares the outputs with a reference computed
	// after the timed phase.
	final func() error
	// close, when set, releases the session's resources.
	close func() error
}

func (s *session) shut() error {
	if s.close == nil {
		return nil
	}
	return s.close()
}

// open sets w up and runs one untimed warm-up op, whose output is checked
// like every other op.
func open(w workload, seed int64) (*session, error) {
	s, err := w.setup(seed)
	if err != nil {
		return nil, err
	}
	if _, err := s.op(); err != nil {
		_ = s.shut() // the warm-up error is the one to report
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return s, nil
}

// tablesGolden is the concatenated Table.Format() of the paper's Tables
// 2-5. Table generation is fixed at the paper's seed, so it does not
// depend on -seed.
//
//go:embed testdata/tables.golden
var tablesGolden string

func setupTables(int64) (*session, error) {
	units := 0
	for range experiments.TableIDs {
		for _, key := range experiments.SetKeys {
			units += experiments.GenParams(key).NbGeneration
		}
	}
	var first []*experiments.Table
	s := &session{units: units}
	s.op = func() (time.Duration, error) {
		began := time.Now()
		tabs, err := experiments.RunTables(experiments.TableIDs)
		d := time.Since(began)
		if err != nil {
			return d, err
		}
		if first == nil {
			if formatTables(tabs) != tablesGolden {
				return d, errors.New("tables differ from testdata/tables.golden")
			}
			first = tabs
			return d, nil
		}
		// Identical cells format identically, so comparing them with the
		// golden-checked first op checks every op against the golden.
		for i, t := range tabs {
			for key, c := range t.Measured {
				if c != first[i].Measured[key] {
					return d, fmt.Errorf("table %s, set %s: cell %+v, first op had %+v", t.ID, key, c, first[i].Measured[key])
				}
			}
		}
		return d, nil
	}
	return s, nil
}

func formatTables(tabs []*experiments.Table) string {
	var b strings.Builder
	for _, t := range tabs {
		b.WriteString(t.Format())
	}
	return b.String()
}

// campaignSpec is the stock campaign (8 points x 1000 systems) at seed.
func campaignSpec(seed int64) experiments.CampaignSpec {
	s := experiments.DefaultCampaignSpec()
	s.Seed = seed
	return s
}

// shardedSpec is the campaign the sharded workload sends over the wire: the
// stock sweep at 160 systems per point, which the coordinator's default
// batch cuts into 20-system requests, 64 per op over two connections.
func shardedSpec(seed int64) experiments.CampaignSpec {
	s := campaignSpec(seed)
	s.Systems = 160
	return s
}

// shardConns is the number of loopback connections of the sharded
// workload, sized for a two-core machine.
const shardConns = 2

func setupCampaign(seed int64) (*session, error) {
	spec := campaignSpec(seed)
	var first *experiments.Curve
	return &session{
		units: spec.Systems * len(spec.Points),
		op:    curveOp(func() (*experiments.Curve, error) { return experiments.RunCampaign(spec) }, &first),
	}, nil
}

func setupSharded(seed int64) (*session, error) {
	spec := shardedSpec(seed)
	f, err := dialShards(shardConns, nil)
	if err != nil {
		return nil, err
	}
	var first *experiments.Curve
	return &session{
		units: spec.Systems * len(spec.Points),
		op: curveOp(func() (*experiments.Curve, error) {
			return experiments.RunCampaignSharded(spec, f.conns, 0)
		}, &first),
		final: func() error {
			ref, err := experiments.RunCampaign(spec)
			if err != nil {
				return err
			}
			if got, want := first.Format(), ref.Format(); got != want {
				return fmt.Errorf("sharded curve\n%s differs from the in-process curve\n%s", got, want)
			}
			return nil
		},
		close: f.close,
	}, nil
}

// curveOp times one campaign run and requires every curve to equal the
// first one, which *first keeps.
func curveOp(run func() (*experiments.Curve, error), first **experiments.Curve) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		began := time.Now()
		c, err := run()
		d := time.Since(began)
		if err != nil {
			return d, err
		}
		if *first == nil {
			*first = c
			return d, nil
		}
		if len(c.Points) != len((*first).Points) {
			return d, fmt.Errorf("curve has %d points, first op had %d", len(c.Points), len((*first).Points))
		}
		for i, pt := range c.Points {
			if pt != (*first).Points[i] {
				return d, fmt.Errorf("point %d: %+v, first op had %+v", i, pt, (*first).Points[i])
			}
		}
		return d, nil
	}
}

// pinnedFlood holds the stress and steady-state fingerprints of the
// default seed.
var pinnedFlood = [2]uint64{0x217ef360a1f3e7fc, 0x84b9f60e83091cfe}

// floodParams returns the stock stress and steady-state scenarios at seed.
func floodParams(seed int64) (experiments.StressParams, experiments.SteadyStateParams) {
	sp := experiments.DefaultStressParams()
	sp.Seed = uint64(seed)
	ss := experiments.DefaultSteadyStateParams()
	ss.Seed = uint64(seed)
	return sp, ss
}

func setupFlood(seed int64) (*session, error) {
	sp, ss := floodParams(seed)
	var first [2]uint64
	s := &session{}
	s.op = func() (time.Duration, error) {
		began := time.Now()
		r, err := experiments.RunStress(sp)
		d := time.Since(began)
		if err != nil {
			return d, err
		}
		began = time.Now()
		q, err := experiments.RunPeriodicSteadyState(ss)
		d += time.Since(began)
		if err != nil {
			return d, err
		}
		if r.Completed != r.Jobs {
			return d, fmt.Errorf("stress completed %d of %d jobs", r.Completed, r.Jobs)
		}
		got := [2]uint64{r.Fingerprint, q.Fingerprint}
		if s.units == 0 {
			if seed == defaultSeed && got != pinnedFlood {
				return d, fmt.Errorf("fingerprints %#x, pinned %#x", got, pinnedFlood)
			}
			first = got
			s.units = r.Jobs + q.Activations
			return d, nil
		}
		if got != first {
			return d, fmt.Errorf("fingerprints %#x, first op had %#x", got, first)
		}
		return d, nil
	}
	return s, nil
}
