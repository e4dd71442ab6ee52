// Package gen is the random real-time system generator of the paper's
// Section 6.1 (the fr.umlv.randomGenerator package): it produces sets of
// systems from (taskDensity, averageCost, stdDeviation, serverCapacity,
// serverPeriod, nbGeneration, seed), deterministically across platforms.
//
// The paper's cost-generation quirk is reproduced on purpose: normally
// distributed costs below 0.1 tu are clamped to 0.1 tu, which the authors
// note biases the average cost upward ("a bad-design issue on our costs
// generation").
package gen

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"strconv"
	"strings"

	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

// ArrivalModel selects how aperiodic arrivals are drawn.
type ArrivalModel int

// Arrival models.
const (
	// PerPeriodArrivals draws round(density) arrivals uniformly inside
	// each server period. This matches the paper's measured served ratios
	// best (its generator is driven by "the average number of aperiodic
	// events per server period") and is the default.
	PerPeriodArrivals ArrivalModel = iota
	// PoissonArrivals draws a Poisson(density*periods) total count with
	// uniform arrival instants over the whole horizon: burstier, used by
	// the robustness experiments.
	PoissonArrivals
	// MMPPArrivals draws from a two-state Markov-modulated Poisson
	// process: the source alternates between a calm state at the base
	// density and a burst state at BurstFactor times that density, with
	// exponentially distributed sojourn times. It produces the arrival
	// storms the overload scenario family needs while staying fully
	// deterministic under the seed.
	MMPPArrivals
)

// Params mirrors the constructor parameters of randomSystemGenerator.
type Params struct {
	// TaskDensity is the average number of aperiodic events per server
	// period.
	TaskDensity float64
	// Arrivals selects the arrival process (default PerPeriodArrivals).
	Arrivals ArrivalModel
	// AverageCost is the mean aperiodic event cost, in time units.
	AverageCost float64
	// StdDeviation is the standard deviation of event costs, in time units.
	StdDeviation float64
	// ServerCapacity and ServerPeriod define the task server, in time
	// units.
	ServerCapacity float64
	ServerPeriod   float64 // server replenishment period, in time units
	// NbGeneration is the number of systems to generate.
	NbGeneration int
	// Seed makes the generation reproducible across platforms.
	Seed int64
	// HorizonPeriods is the observation window in server periods (the
	// paper limits simulations and executions to ten server periods).
	HorizonPeriods int
	// BurstFactor multiplies the arrival rate in the MMPP burst state
	// (MMPPArrivals only); 0 defaults to 8.
	BurstFactor float64
	// BurstMeanPeriods is the mean burst-state sojourn in server periods
	// (MMPPArrivals only); 0 defaults to 1.
	BurstMeanPeriods float64
	// CalmMeanPeriods is the mean calm-state sojourn in server periods
	// (MMPPArrivals only); 0 defaults to 3.
	CalmMeanPeriods float64
}

// Horizon returns the observation window of the generated systems.
func (p Params) Horizon() rtime.Time {
	return rtime.Time(rtime.TUs(p.ServerPeriod)) * rtime.Time(p.HorizonPeriods)
}

// MaxEventsPerSystem bounds the aperiodic events one system may draw:
// density times HorizonPeriods, and the horizon itself, which the
// generator walks period by period. It keeps a mistyped or hostile
// parameter from sizing a buffer beyond memory or walking an endless
// horizon.
const MaxEventsPerSystem = 100_000

// Validate reports parameters no system can be drawn from: every float
// must be finite, the density and the server's capacity and period
// positive, and the horizon 1 to MaxEventsPerSystem periods holding at
// most MaxEventsPerSystem expected events. NbGeneration, Seed, Arrivals
// and the MMPP fields are not checked.
func (p Params) Validate() error {
	if !finite(p.AverageCost) || !finite(p.StdDeviation) {
		return fmt.Errorf("event cost mean %v and deviation %v must be finite", p.AverageCost, p.StdDeviation)
	}
	if !positive(p.ServerCapacity) || !positive(p.ServerPeriod) {
		return fmt.Errorf("server capacity and period must be positive and finite")
	}
	if p.HorizonPeriods <= 0 || p.HorizonPeriods > MaxEventsPerSystem {
		return fmt.Errorf("horizon must be 1 to %d periods (got %d)", MaxEventsPerSystem, p.HorizonPeriods)
	}
	if !positive(p.TaskDensity) {
		return fmt.Errorf("density %v must be positive and finite", p.TaskDensity)
	}
	if p.TaskDensity*float64(p.HorizonPeriods) > MaxEventsPerSystem {
		return fmt.Errorf("density %v over %d periods exceeds %d events per system",
			p.TaskDensity, p.HorizonPeriods, MaxEventsPerSystem)
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// positive reports whether v is positive and finite.
func positive(v float64) bool { return v > 0 && finite(v) }

// MinCost is the clamp the paper applies to generated costs.
const MinCost = 0.1

// Generate produces the systems for one parameter tuple. The returned
// systems carry no server policy: use WithServer to attach one.
func Generate(p Params) []sim.System {
	if p.NbGeneration <= 0 {
		return nil
	}
	out := make([]sim.System, 0, p.NbGeneration)
	for _, sys := range Systems(p) {
		out = append(out, sys)
	}
	return out
}

// Systems yields the systems of Generate one at a time, with their
// indices, drawing each from the set's sequential random stream only when
// the caller asks for it: a consumer that stops early never pays for the
// rest of the set, and one that prints as it goes holds a single system.
// Each yielded system owns its jobs.
func Systems(p Params) iter.Seq2[int, sim.System] {
	return func(yield func(int, sim.System) bool) {
		if p.HorizonPeriods <= 0 {
			p.HorizonPeriods = 10
		}
		r := newRNG(uint64(p.Seed))
		// One buffer lends its arrival scratch and job names to the whole
		// set; every system gets jobs of its own.
		var b Buffer
		for n := 0; n < p.NbGeneration; n++ {
			b.jobs = nil
			if !yield(n, b.genSystem(p, r)) {
				return
			}
		}
	}
}

// SystemAt returns system i of the unbounded, index-addressable campaign
// population for p. Unlike Generate, whose systems share one sequential
// random stream (system n depends on every draw before it), each index
// derives its own splitmix stream from (Seed, i): SystemAt is a pure
// function of (p, i), so a shard worker can generate any index range of a
// campaign without replaying the prefix — the foundation of the campaign
// fabric's deterministic sharding. NbGeneration is ignored.
//
// SystemAt(p, i) and Generate(p)[i] draw from different streams and do not
// produce the same systems; campaigns are a distinct population from the
// paper's NbGeneration sets.
func SystemAt(p Params, i int) sim.System {
	var b Buffer
	return b.SystemAt(p, i)
}

// Buffer is reusable storage for generated systems: the arrival scratch,
// the aperiodic job slice, the job names and a server specification. A
// campaign worker generates every system it runs into one Buffer, so after
// warm-up generation allocates nothing. The zero value is ready to use; a
// Buffer must not be used by two goroutines at once.
type Buffer struct {
	arrivals []float64
	jobs     []sim.AperiodicJob
	// names[k] is the name of sorted slot k ("J<k+1>"), formatted the
	// first time any system fills that slot.
	names  []string
	server sim.ServerSpec
}

// SystemAt returns a system equal (reflect.DeepEqual) to gen.SystemAt(p,
// i), built in the buffer's storage: it stays valid until the buffer's
// next SystemAt.
func (b *Buffer) SystemAt(p Params, i int) sim.System {
	if p.HorizonPeriods <= 0 {
		p.HorizonPeriods = 10
	}
	// Per-index stream derivation mirrors Noise: the seed and the index mix
	// through distinct odd constants so neighbouring indices land in
	// unrelated splitmix states.
	r := rng{s: uint64(p.Seed)*0x9E3779B97F4A7C15 ^ (uint64(i)+1)*0xA24BAED4963EE407}
	return b.genSystem(p, &r)
}

// WithServer is gen.WithServer with the server specification stored in
// the buffer: the returned system's Server points into b and stays valid
// until b's next WithServer.
func (b *Buffer) WithServer(sys sim.System, p Params, policy sim.ServerPolicy, prio int) sim.System {
	b.server = ServerSpecOf(p, policy, prio)
	sys.Server = &b.server
	return sys
}

// genSystem draws one system from r into the buffer: the shared body of
// Generate (one sequential stream across systems) and SystemAt (one
// stream per index), for every arrival model. The system's jobs reuse
// b.jobs when it has room, so callers that keep the system must clear it
// first. The caller must have defaulted HorizonPeriods.
func (b *Buffer) genSystem(p Params, r *rng) sim.System {
	horizonTU := p.ServerPeriod * float64(p.HorizonPeriods)
	arrivals := b.arrivals[:0]
	switch p.Arrivals {
	case MMPPArrivals:
		arrivals = mmppArrivals(p, r, horizonTU, arrivals)
	case PoissonArrivals:
		lambda := p.TaskDensity * float64(p.HorizonPeriods)
		count := r.poisson(lambda)
		arrivals = slices.Grow(arrivals, count)
		for i := 0; i < count; i++ {
			arrivals = append(arrivals, r.float64()*horizonTU)
		}
	default: // PerPeriodArrivals
		perPeriod := int(p.TaskDensity + 0.5)
		arrivals = slices.Grow(arrivals, perPeriod*p.HorizonPeriods)
		for k := 0; k < p.HorizonPeriods; k++ {
			for i := 0; i < perPeriod; i++ {
				arrivals = append(arrivals,
					(float64(k)+r.float64())*p.ServerPeriod)
			}
		}
	}
	b.arrivals = arrivals
	sortFloats(arrivals)
	n := len(arrivals)
	// The job slice is never nil: a system without arrivals has an empty
	// one.
	if b.jobs == nil || cap(b.jobs) < n {
		b.jobs = make([]sim.AperiodicJob, 0, n)
	}
	if n > len(b.names) {
		b.growNames(n)
	}
	jobs := b.jobs[:0]
	for i, a := range arrivals {
		cost := p.AverageCost + p.StdDeviation*r.norm()
		if cost < MinCost {
			cost = MinCost
		}
		jobs = append(jobs, sim.AperiodicJob{
			Name:    b.names[i],
			Release: rtime.AtTU(a),
			Cost:    rtime.TUs(cost),
		})
	}
	b.jobs = jobs
	return sim.System{Aperiodics: jobs}
}

// mmppArrivals walks the two-state chain across the horizon and appends
// its arrivals to arrivals: each sojourn length is exponential with the
// state's mean, the arrivals inside it are Poisson at the state's rate
// with uniform instants in the window.
func mmppArrivals(p Params, r *rng, horizonTU float64, arrivals []float64) []float64 {
	burstFactor := p.BurstFactor
	if burstFactor <= 0 {
		burstFactor = 8
	}
	burstMean := p.BurstMeanPeriods
	if burstMean <= 0 {
		burstMean = 1
	}
	calmMean := p.CalmMeanPeriods
	if calmMean <= 0 {
		calmMean = 3
	}
	calmRate := p.TaskDensity / p.ServerPeriod // arrivals per tu
	t := 0.0
	burst := false
	for t < horizonTU {
		mean, rate := calmMean, calmRate
		if burst {
			mean, rate = burstMean, calmRate*burstFactor
		}
		sojourn := -mean * p.ServerPeriod * math.Log(1-r.float64())
		end := t + sojourn
		if end > horizonTU {
			end = horizonTU
		}
		n := r.poisson(rate * (end - t))
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, t+r.float64()*(end-t))
		}
		t = end
		burst = !burst
	}
	return arrivals
}

// WithServer returns a copy of sys with the given server policy attached,
// using the generation parameters' capacity and period. The server runs at
// the highest application priority, as the paper requires.
func WithServer(sys sim.System, p Params, policy sim.ServerPolicy, prio int) sim.System {
	out := sys
	spec := ServerSpecOf(p, policy, prio)
	out.Server = &spec
	return out
}

// ServerSpecOf builds the server specification for a parameter tuple.
func ServerSpecOf(p Params, policy sim.ServerPolicy, prio int) sim.ServerSpec {
	return sim.ServerSpec{
		Policy:   policy,
		Capacity: rtime.TUs(p.ServerCapacity),
		Period:   rtime.TUs(p.ServerPeriod),
		Priority: prio,
	}
}

// growNames names the slots [len(b.names), n): slot k is "J<k+1>", as
// sim.AperiodicName would name it. The new names are formatted into one
// string and sliced out of it, so a batch of slots costs one allocation,
// not one per name.
func (b *Buffer) growNames(n int) {
	first := len(b.names)
	var num [20]byte
	digits := func(k int) []byte { return strconv.AppendInt(num[:0], int64(k+1), 10) }
	var sb strings.Builder
	sb.Grow((n - first) * (1 + len(digits(n))))
	for k := first; k < n; k++ {
		sb.WriteByte('J')
		sb.Write(digits(k))
	}
	all, off := sb.String(), 0
	b.names = slices.Grow(b.names, n-first)
	for k := first; k < n; k++ {
		end := off + 1 + len(digits(k))
		b.names = append(b.names, all[off:end])
		off = end
	}
}

func sortFloats(a []float64) {
	// Insertion sort: arrival lists are small and this avoids pulling in
	// sort for a hot generation loop.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// rng is a splitmix64 generator: tiny, fast, and stable across Go versions
// and platforms (the paper passes a seed "in order to generate the same
// systems on multiple platforms").
type rng struct {
	s     uint64
	spare float64
	has   bool
}

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// norm returns a standard normal value (Box-Muller, with the spare cached).
func (r *rng) norm() float64 {
	if r.has {
		r.has = false
		return r.spare
	}
	var u, v float64
	for u == 0 {
		u = r.float64()
	}
	v = r.float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.has = true
	return mag * math.Cos(2*math.Pi*v)
}

// poisson draws a Poisson-distributed count (Knuth's method; the paper's
// densities keep lambda small enough for it).
func (r *rng) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.float64()
		if p <= l {
			return k
		}
		k++
		if k > 100000 {
			return k // defensive; unreachable for sane lambda
		}
	}
}

// Noise derives a deterministic per-event cost-noise factor in [0, 1),
// independent of generation order, for the execution model's WCET jitter.
func Noise(seed int64, sysIndex, jobIndex int) float64 {
	r := newRNG(uint64(seed) ^ uint64(sysIndex)*0xA24BAED4963EE407 ^ uint64(jobIndex)*0x9FB21C651E98DF25)
	return r.float64()
}
