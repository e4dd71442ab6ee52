// Package faults provides deterministic fault injection for the executive
// and the simulator: seeded plans that perturb a workload with cost
// overruns (WCET violations), release jitter, and dropped releases, plus a
// runtime invariant checker used by the differential-test net.
//
// A Plan derives every fault from a hash of (seed, system index, job
// index) — never from call order — so the fault schedule is a pure
// function of the workload identity. The same plan applied to the same
// system yields the same perturbed workload on every engine, which is
// what lets the overload and stress scenarios pin their fingerprints.
// Faults perturb aperiodic jobs only; periodic tasks run unperturbed.
package faults

import (
	"fmt"
	"strconv"
	"strings"

	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

// Plan is a seeded fault-injection plan. The zero value (and a nil plan)
// injects nothing; every knob defaults to off. Probabilities are in
// [0, 1] and evaluated independently per job from the plan's seed.
type Plan struct {
	// Seed selects the fault schedule; two plans with equal knobs and
	// equal seeds inject identical faults.
	Seed int64
	// OverrunProb is the probability that a job's actual cost exceeds its
	// declared cost.
	OverrunProb float64
	// OverrunMax is the maximum fractional inflation of an overrunning
	// job's cost: the cost factor is drawn uniformly from
	// (1, 1+OverrunMax].
	OverrunMax float64
	// JitterProb is the probability that a release is delayed.
	JitterProb float64
	// JitterMax is the maximum release delay, drawn uniformly from
	// (0, JitterMax].
	JitterMax rtime.Duration
	// DropProb is the probability that a release is dropped entirely
	// (the event never fires).
	DropProb float64
}

// MaxOverrun is the largest OverrunMax ParseArgs accepts. An overrunning
// job then costs at most 1+MaxOverrun times its declared cost, so
// Fault.Apply stays representable for every cost below
// math.MaxInt64/(1+MaxOverrun) nanoseconds — about 106 days of virtual
// time.
const MaxOverrun = 1000

// Fault is the perturbation a plan assigns to one job. The
// zero fault plus CostFactor 1 means "unperturbed".
type Fault struct {
	// Dropped marks a release that never happens.
	Dropped bool
	// Jitter delays the release.
	Jitter rtime.Duration
	// CostFactor scales the job's actual execution demand; always >= 1.
	CostFactor float64
}

// Apply scales cost by the fault's cost factor.
func (f Fault) Apply(cost rtime.Duration) rtime.Duration {
	if f.CostFactor <= 1 {
		return cost
	}
	return rtime.Duration(float64(cost) * f.CostFactor)
}

// Fault kind salts: each knob draws from its own stream so enabling one
// kind never shifts another kind's schedule.
const (
	kindDrop    = 0x71AB3C5D17E94F01
	kindOverrun = 0x3C79AC492BA7B653
	kindJitter  = 0x1C69B3F74AC4CB2D
)

// rng is a splitmix64 stream, the same generator family used by
// internal/gen for workload noise.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// stream seeds a fault-kind-specific generator for one (system, job)
// coordinate. The constants match internal/gen's index mixing.
func (p *Plan) stream(kind uint64, sysIndex, jobIndex int) rng {
	x := uint64(p.Seed) ^ kind ^
		uint64(sysIndex)*0xA24BAED4963EE407 ^
		uint64(jobIndex)*0x9FB21C651E98DF25
	r := rng{s: x}
	r.next() // decorrelate nearby coordinates
	return r
}

// Enabled reports whether the plan can inject anything at all. A nil plan
// is disabled.
func (p *Plan) Enabled() bool {
	return p != nil && (p.DropProb > 0 ||
		(p.OverrunProb > 0 && p.OverrunMax > 0) ||
		(p.JitterProb > 0 && p.JitterMax > 0))
}

// JobFault derives the fault for aperiodic job jobIndex of system
// sysIndex. The result depends only on (Seed, knobs, sysIndex, jobIndex).
// A nil plan returns the unperturbed fault.
func (p *Plan) JobFault(sysIndex, jobIndex int) Fault {
	f := Fault{CostFactor: 1}
	if p == nil {
		return f
	}
	if p.DropProb > 0 {
		r := p.stream(kindDrop, sysIndex, jobIndex)
		if r.float64() < p.DropProb {
			f.Dropped = true
			return f
		}
	}
	if p.OverrunProb > 0 && p.OverrunMax > 0 {
		r := p.stream(kindOverrun, sysIndex, jobIndex)
		if r.float64() < p.OverrunProb {
			f.CostFactor = 1 + p.OverrunMax*(1-r.float64())
		}
	}
	if p.JitterProb > 0 && p.JitterMax > 0 {
		r := p.stream(kindJitter, sysIndex, jobIndex)
		if r.float64() < p.JitterProb {
			f.Jitter = rtime.Duration(float64(p.JitterMax) * (1 - r.float64()))
		}
	}
	return f
}

// ApplySystem returns a copy of sys with the plan's job faults applied at
// the workload level: dropped jobs are removed, jittered releases are
// delayed, and overruns inflate the actual cost while pinning Declared to
// the original cost (the WCET the job announced). Periodic tasks are
// untouched. A nil or disabled plan returns sys unchanged.
func (p *Plan) ApplySystem(sys sim.System, sysIndex int) sim.System {
	if !p.Enabled() {
		return sys
	}
	out := sys
	out.Aperiodics = make([]sim.AperiodicJob, 0, len(sys.Aperiodics))
	for i, j := range sys.Aperiodics {
		f := p.JobFault(sysIndex, i)
		if f.Dropped {
			continue
		}
		if f.CostFactor > 1 {
			if j.Declared == 0 {
				j.Declared = j.Cost
			}
			j.Cost = f.Apply(j.Cost)
		}
		j.Release = j.Release.Add(f.Jitter)
		out.Aperiodics = append(out.Aperiodics, j)
	}
	return out
}

// Parse decodes a plan from its textual encoding, a space-separated list
// of key=value options:
//
//	seed=7 overrun=0.3:0.5 jitter=0.2:1.5 drop=0.05
//
// overrun is prob:max-fraction, jitter is prob:max-delay (a
// rtime.ParseDuration value), drop is a probability. The strings "off",
// "none" and "" decode to a nil plan.
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "off" || s == "none" {
		return nil, nil
	}
	return ParseArgs(strings.Fields(s))
}

// ParseArgs decodes a plan from pre-split key=value fields (the spec
// parser hands directive arguments in this form). It rejects a
// probability that is NaN or outside [0, 1], an overrun max that is NaN
// or outside [0, MaxOverrun], and a negative jitter max.
func ParseArgs(fields []string) (*Plan, error) {
	p := &Plan{}
	for _, opt := range fields {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, fmt.Errorf("faults: malformed option %q (want key=value)", opt)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "overrun":
			err = parseProbPair(v, &p.OverrunProb, func(s string) error {
				f, e := strconv.ParseFloat(s, 64)
				p.OverrunMax = f
				return e
			})
		case "jitter":
			err = parseProbPair(v, &p.JitterProb, func(s string) error {
				d, e := rtime.ParseDuration(s)
				p.JitterMax = d
				return e
			})
		case "drop":
			p.DropProb, err = strconv.ParseFloat(v, 64)
		default:
			return nil, fmt.Errorf("faults: unknown option %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: option %q: %v", opt, err)
		}
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// validate rejects knob values no fault schedule can honour. The range
// tests are written so that NaN fails them.
func (p *Plan) validate() error {
	for _, prob := range []struct {
		name string
		v    float64
	}{{"overrun", p.OverrunProb}, {"jitter", p.JitterProb}, {"drop", p.DropProb}} {
		if !(prob.v >= 0 && prob.v <= 1) {
			return fmt.Errorf("faults: %s probability %v outside [0, 1]", prob.name, prob.v)
		}
	}
	if !(p.OverrunMax >= 0 && p.OverrunMax <= MaxOverrun) {
		return fmt.Errorf("faults: overrun max %v outside [0, %d]", p.OverrunMax, MaxOverrun)
	}
	if p.JitterMax < 0 {
		return fmt.Errorf("faults: negative jitter max %v", p.JitterMax)
	}
	return nil
}

// parseProbPair splits "prob:arg" and parses the probability, handing the
// second component to parseArg.
func parseProbPair(v string, prob *float64, parseArg func(string) error) error {
	ps, as, ok := strings.Cut(v, ":")
	if !ok {
		return fmt.Errorf("want prob:value")
	}
	p, err := strconv.ParseFloat(ps, 64)
	if err != nil {
		return err
	}
	*prob = p
	return parseArg(as)
}

// String renders the plan in the encoding Parse accepts. A nil plan
// renders as "off".
func (p *Plan) String() string {
	if p == nil {
		return "off"
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.OverrunProb > 0 && p.OverrunMax > 0 {
		parts = append(parts, fmt.Sprintf("overrun=%g:%g", p.OverrunProb, p.OverrunMax))
	}
	if p.JitterProb > 0 && p.JitterMax > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%g:%s", p.JitterProb, p.JitterMax))
	}
	if p.DropProb > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.DropProb))
	}
	return strings.Join(parts, " ")
}
