package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReduceMatchesMap pins the streaming contract: for every worker count,
// ReduceN folds exactly the values MapN would retain, in exactly item order.
func TestReduceMatchesMap(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i * 3
	}
	fn := func(i int) (int, error) { return items[i]*items[i] + i, nil }
	want, err := MapN(1, len(items), fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0), 0} {
		got, err := ReduceN(workers, len(items), []int(nil), noState,
			func(_ struct{}, i int) (int, error) { return fn(i) },
			func(acc []int, i int, r int) []int {
				if i != len(acc) {
					t.Errorf("workers=%d: folded index %d at fold position %d", workers, i, len(acc))
				}
				return append(acc, r)
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: folded %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// noState is the newState of reductions that keep no per-worker state.
func noState() struct{} { return struct{}{} }

// TestReduceNEmpty checks the n=0 fast path returns the seed accumulator.
func TestReduceNEmpty(t *testing.T) {
	acc, err := ReduceN(4, 0, 42, noState, func(_ struct{}, i int) (int, error) { return 0, nil },
		func(acc, i, r int) int { return acc + r })
	if err != nil || acc != 42 {
		t.Fatalf("got (%d, %v), want (42, nil)", acc, err)
	}
}

// TestReduceLowestIndexError checks the error contract matches MapN: the
// lowest-indexed failure wins regardless of which worker hits one first.
func TestReduceLowestIndexError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("unit %d failed", i) }
	for _, workers := range []int{1, 4, 8} {
		_, err := ReduceN(workers, 300, 0, noState,
			func(_ struct{}, i int) (int, error) {
				if i%7 == 3 {
					return 0, boom(i)
				}
				return i, nil
			},
			func(acc, i, r int) int { return acc + r })
		if err == nil || err.Error() != "unit 3 failed" {
			t.Fatalf("workers=%d: err = %v, want unit 3 failed", workers, err)
		}
	}
}

// TestReduceWindowBound checks that claims never run more than the reorder
// window ahead of the fold cursor, so at most O(window) results are ever
// held — the bounded-memory half of the streaming contract.
func TestReduceWindowBound(t *testing.T) {
	const workers = 4
	window := int64(4 * workers)
	if window < 16 {
		window = 16
	}
	var folded atomic.Int64
	var started atomic.Int64
	var maxAhead atomic.Int64
	_, err := ReduceN(workers, 5000, 0, noState,
		func(_ struct{}, i int) (int, error) {
			ahead := started.Add(1) - folded.Load()
			for {
				m := maxAhead.Load()
				if ahead <= m || maxAhead.CompareAndSwap(m, ahead) {
					break
				}
			}
			return i, nil
		},
		func(acc, i, r int) int {
			folded.Add(1)
			return acc + r
		})
	if err != nil {
		t.Fatal(err)
	}
	// started <= claim and folded lags the fold cursor read, so the
	// observed run-ahead can exceed the window only by the workers still
	// in flight.
	if got := maxAhead.Load(); got > window+workers {
		t.Fatalf("claims ran %d ahead of the fold cursor, want <= %d", got, window+workers)
	}
}

// TestReduceErrorDiscardsAccumulator checks a failing reduce returns the
// zero accumulator, not a partial fold.
func TestReduceErrorDiscardsAccumulator(t *testing.T) {
	sentinel := errors.New("stop")
	acc, err := ReduceN(2, 100, 7, noState,
		func(_ struct{}, i int) (int, error) {
			if i == 50 {
				return 0, sentinel
			}
			return 1, nil
		},
		func(acc, i, r int) int { return acc + r })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if acc != 0 {
		t.Fatalf("acc = %d, want zero value on error", acc)
	}
}

// workerState is a per-goroutine state that detects sharing: a unit marks
// it busy for its duration, so two goroutines running units on the same
// state at once trip the check.
type workerState struct {
	busy  atomic.Bool
	units int
}

// TestReduceNPerWorkerState pins the state contract: each participating
// goroutine builds at most one state and no state is ever used by two
// units at once, while results stay identical to a stateless serial fold.
func TestReduceNPerWorkerState(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		var made atomic.Int64
		var states []*workerState
		var mu sync.Mutex
		sum, err := ReduceN(workers, 2000, 0,
			func() *workerState {
				made.Add(1)
				s := new(workerState)
				mu.Lock()
				states = append(states, s)
				mu.Unlock()
				return s
			},
			func(s *workerState, i int) (int, error) {
				if !s.busy.CompareAndSwap(false, true) {
					return 0, fmt.Errorf("unit %d: state shared with a concurrent unit", i)
				}
				s.units++
				runtime.Gosched()
				s.busy.Store(false)
				return i, nil
			},
			func(acc, _ int, r int) int { return acc + r })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := 2000 * 1999 / 2; sum != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, sum, want)
		}
		if n := made.Load(); n < 1 || n > int64(workers) {
			t.Fatalf("workers=%d: built %d states, want 1..%d", workers, n, workers)
		}
		units := 0
		for _, s := range states {
			units += s.units
		}
		if units != 2000 {
			t.Fatalf("workers=%d: states ran %d units, want 2000", workers, units)
		}
	}
}
