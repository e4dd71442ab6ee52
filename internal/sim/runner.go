package sim

import "rtsj/internal/rtime"

// Runner runs metrics-only fixed-priority simulations on storage it keeps
// from one run to the next: the release calendar, the aperiodic release
// index, the Jobs slice, a slab of Job records and the FP dispatcher with
// its server. After warm-up a run allocates nothing, which is what a
// worker simulating thousands of systems needs. The schedule is the one
// sim.Run computes with NewFP and no trace: both run the same engine, on
// fresh storage there and on kept storage here.
//
// The zero value is ready to use. A Runner must not be used by two
// goroutines at once.
type Runner struct {
	e   engine
	cal heapCalendar
	fp  FP
	res Result
}

// Run simulates sys under FP scheduling with its server until horizon.
// The returned Result, its Jobs and every *Job in it belong to the Runner:
// they stay valid until the next Run, which overwrites them.
func (r *Runner) Run(sys System, horizon rtime.Time) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	r.fp.reset(sys, nil)
	r.cal.a = r.cal.a[:0]
	res, err := r.e.simulate(sys, &r.fp, horizon, nil, &r.cal)
	if err != nil {
		return nil, err
	}
	r.res = res
	return &r.res, nil
}

// jobSlab hands out Job records from chunks it keeps across runs. A chunk
// never moves once made, so every record keeps its address for the whole
// run that took it.
type jobSlab struct {
	chunks [][]Job
	chunk  int // chunk the next record comes from
	used   int // records taken from chunks[chunk]
}

// firstSlabChunk is the size of a slab's first chunk; each later chunk
// doubles it, up to 64 times its size. The first chunk is small so that a
// Runner made for a short range of systems pays little for it; a stock
// campaign system needs a few dozen records.
const firstSlabChunk = 16

// next returns a record for the engine to overwrite in full.
func (s *jobSlab) next() *Job {
	if s.chunk < len(s.chunks) && s.used == len(s.chunks[s.chunk]) {
		s.chunk, s.used = s.chunk+1, 0
	}
	if s.chunk == len(s.chunks) {
		s.chunks = append(s.chunks, make([]Job, firstSlabChunk<<min(len(s.chunks), 6)))
	}
	j := &s.chunks[s.chunk][s.used]
	s.used++
	return j
}
