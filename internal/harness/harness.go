// Package harness runs independent experiment work units — the systems
// of every cell of the tables or of the policy matrix, the systems of a
// campaign range, per-config sweeps — across a bounded worker pool.
//
// The paper's evaluation is embarrassingly parallel (6 policies x 6 sets x
// 10 generated systems, every unit seeded deterministically), so the only
// requirement beyond a pool is that aggregation stays deterministic.
// ReduceN is the one claim/fold machine: it folds each result into an
// accumulator strictly in index order, whatever the completion order, so
// every downstream reduction (metrics.Aggregate, table cells, campaign
// partials) is bit-identical for any worker count. Its steady-state memory
// is O(workers + reorder window), independent of the item count, and each
// of its goroutines owns one reusable state, so a unit can run on storage
// warmed by the previous one. Map and MapN are ReduceN callers whose fold
// stores every result in an item-ordered slice — fine for the figures,
// prohibitive for a million-system campaign.
package harness

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable consulted for the default worker
// count when no explicit override is set.
const EnvWorkers = "RTSJ_WORKERS"

var override atomic.Int64

// SetWorkers overrides the default worker count process-wide (0 restores
// the environment/GOMAXPROCS default). The cmd front-ends wire their
// -workers flag here; tests use it to pin determinism runs.
func SetWorkers(n int) { override.Store(int64(n)) }

var envWarnOnce sync.Once

// Workers returns the worker count used when Map, MapN or ReduceN is called
// with workers<=0.
// Precedence: the SetWorkers override (the cmd front-ends' -workers flag),
// else $RTSJ_WORKERS, else GOMAXPROCS. An invalid $RTSJ_WORKERS value
// (non-numeric, zero, or negative) is ignored with a single warning on
// stderr — silently falling back used to hide typos like RTSJ_WORKERS=four
// or RTSJ_WORKERS=-2.
func Workers() int {
	if n := int(override.Load()); n > 0 {
		return n
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
		envWarnOnce.Do(func() {
			fmt.Fprintf(os.Stderr,
				"harness: ignoring invalid %s=%q (want a positive integer); using GOMAXPROCS=%d\n",
				EnvWorkers, s, runtime.GOMAXPROCS(0))
		})
	}
	return runtime.GOMAXPROCS(0)
}

// extraWorkers counts the helper goroutines live across every ReduceN call
// in the process. Calls may nest (each figure of experiments.RunFigures runs its two
// engines in a nested MapN); the process-wide budget keeps total
// concurrency bounded by Workers() no matter how deep.
var extraWorkers atomic.Int64

func acquireWorker(limit int64) bool {
	for {
		n := extraWorkers.Load()
		if n >= limit {
			return false
		}
		if extraWorkers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Map applies fn to every item concurrently and returns the results in
// item order. fn receives the item index and the item; it must be safe to
// call concurrently. If any call fails, Map waits for in-flight work and
// returns the error of the lowest-indexed failure — deterministic no
// matter which worker hit it first.
//
// Map runs on ReduceN's pool: the calling goroutine always processes items
// itself, and up to workers-1 helper goroutines (workers<=0 selects
// Workers()) join it, gated by a process-wide budget of Workers()-1
// helpers. Nested calls therefore share one bounded pool: when the budget
// is exhausted an inner call simply runs inline in its caller, which also
// makes nesting deadlock-free.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return MapN(workers, len(items), func(i int) (R, error) { return fn(i, items[i]) })
}

// MapN is Map over the index range [0, n): for work units that are cheaper
// to describe by index (table cells, sweep points) than to materialize as a
// slice. It is ReduceN with a stateless fn and a fold that stores each
// result at its index.
func MapN[R any](workers, n int, fn func(i int) (R, error)) ([]R, error) {
	return ReduceN(workers, n, make([]R, n),
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (R, error) { return fn(i) },
		func(out []R, i int, r R) []R { out[i] = r; return out })
}

// ReduceN applies fn to every index in [0, n) concurrently and folds each
// result into the accumulator strictly in index order: the fold sequence
// is identical to a serial loop, so any accumulator — even one built on
// float arithmetic — is bit-identical for every worker count. Nothing is
// retained beyond what fold keeps: a result is folded as soon as all lower
// indices have been folded, and at most a bounded reorder window of
// results is ever held, so steady-state memory is O(workers), not O(n).
// It is the streaming unit of the campaign fabric, where systems are
// generated on demand from their index and folded into mergeable partial
// metrics.
//
// Every participating goroutine — the caller and each helper — builds its
// own state with newState, once, before its first unit, and passes it to
// every fn call it makes. A state is never shared between goroutines, so
// fn may keep reusable scratch in it (generator buffers, a simulator)
// without locking; results fn returns must not alias that scratch, since
// the same goroutine overwrites it on its next unit while the result may
// still wait in the reorder window.
//
// fold runs serialized (never concurrently with itself) and must be cheap;
// it must not call back into the harness. On error, ReduceN waits for
// in-flight work, discards the partial accumulator and returns the zero A
// with the error of the lowest-indexed failure.
func ReduceN[S, R, A any](workers, n int, acc A, newState func() S, fn func(s S, i int) (R, error), fold func(acc A, i int, r R) A) (A, error) {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return acc, nil
	}
	// The reorder window bounds how far claims may run ahead of the fold
	// cursor: completed-but-unfoldable results are held (at most window of
	// them) until their turn. A few slots per worker absorb uneven unit
	// costs without letting a slow low index pile up the whole campaign.
	window := 4 * workers
	if window < 16 {
		window = 16
	}
	st := &reduceState[S, R, A]{
		slots:  make([]R, window),
		filled: make([]bool, window),
		errIdx: -1,
		acc:    acc,
	}
	st.cond = sync.NewCond(&st.mu)
	var wg sync.WaitGroup
	budget := int64(Workers() - 1)
	for w := 1; w < workers && acquireWorker(budget); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer extraWorkers.Add(-1)
			st.run(n, newState, fn, fold)
		}()
	}
	st.run(n, newState, fn, fold)
	wg.Wait()
	if st.errIdx != -1 {
		var zero A
		return zero, st.err
	}
	return st.acc, nil
}

// reduceState is the shared claim/fold machine of one ReduceN call.
//
// Completed results wait in a ring of window slots: claims never run
// window or more ahead of the fold cursor, so every held index i lies in
// [done, done+window) and owns slot i%window alone.
type reduceState[S, R, A any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	claim  int // next index to hand to a worker
	done   int // next index to fold (all below are folded)
	slots  []R
	filled []bool
	held   int // results parked in slots
	errIdx int
	err    error
	acc    A
}

func (st *reduceState[S, R, A]) run(n int, newState func() S, fn func(s S, i int) (R, error), fold func(acc A, i int, r R) A) {
	window := len(st.slots)
	var s S
	haveState := false
	for {
		st.mu.Lock()
		// Claims are issued in increasing order (the lowest-index error
		// guarantee relies on it) and gated by the reorder window. Blocking
		// cannot deadlock: if every worker waits here, every claimed index
		// is parked, so the fold loop below has already advanced done.
		for st.errIdx == -1 && st.claim < n && st.claim-st.done >= window {
			st.cond.Wait()
		}
		if st.errIdx != -1 || st.claim >= n {
			st.mu.Unlock()
			return
		}
		i := st.claim
		st.claim++
		st.mu.Unlock()

		if !haveState {
			s, haveState = newState(), true
		}
		counted := unitStart()
		r, err := fn(s, i)
		if counted {
			unitEnd()
		}

		st.mu.Lock()
		if err != nil {
			if st.errIdx == -1 || i < st.errIdx {
				st.errIdx, st.err = i, err
			}
			st.cond.Broadcast()
			st.mu.Unlock()
			return
		}
		st.slots[i%window], st.filled[i%window] = r, true
		st.held++
		noteWindow(st.held)
		var zero R
		for k := st.done % window; st.filled[k]; k = st.done % window {
			next := st.slots[k]
			st.slots[k], st.filled[k] = zero, false
			st.held--
			st.acc = fold(st.acc, st.done, next)
			st.done++
		}
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}
