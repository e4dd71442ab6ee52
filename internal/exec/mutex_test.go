package exec

import (
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

func TestMutexMutualExclusion(t *testing.T) {
	m := NewMutex("m")
	var order []string
	runExec(t, 20, func(ex *Exec) {
		for _, name := range []string{"a", "b"} {
			name := name
			ex.Spawn(name, 1, 0, func(tc *TC) {
				tc.WithLock(m, func() {
					order = append(order, name+"+")
					tc.Consume(tu(2))
					order = append(order, name+"-")
				})
			})
		}
	})
	want := []string{"a+", "a-", "b+", "b-"}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (critical sections interleaved)", order, want)
		}
	}
}

func TestMutexGrantsByPriority(t *testing.T) {
	m := NewMutex("m")
	var order []string
	runExec(t, 30, func(ex *Exec) {
		ex.Spawn("holder", 5, 0, func(tc *TC) {
			tc.WithLock(m, func() { tc.Consume(tu(3)) })
		})
		// Both block while holder runs; the high-priority waiter must win
		// even though the low one queued first.
		ex.Spawn("low", 1, at(1), func(tc *TC) {
			tc.WithLock(m, func() {
				order = append(order, "low")
				tc.Consume(tu(1))
			})
		})
		ex.Spawn("high", 9, at(2), func(tc *TC) {
			tc.WithLock(m, func() {
				order = append(order, "high")
				tc.Consume(tu(1))
			})
		})
	})
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("order = %v", order)
	}
}

// The classic bounded-inversion scenario: lo holds the lock, hi blocks on
// it, mid preempts lo. With priority inheritance, lo inherits hi's priority
// and finishes its critical section before mid runs.
func TestMutexPriorityInheritanceBoundsInversion(t *testing.T) {
	run := func(inherit bool) (hiDone, midDone rtime.Time) {
		var m *Mutex
		if inherit {
			m = NewMutex("m")
		} else {
			m = NewMutexNoInherit("m")
		}
		ex := NewWithOptions(trace.New(), Options{})
		ex.Spawn("lo", 1, 0, func(tc *TC) {
			tc.WithLock(m, func() { tc.Consume(tu(4)) })
		})
		ex.Spawn("mid", 5, at(2), func(tc *TC) {
			tc.Consume(tu(4))
			midDone = tc.Now()
		})
		ex.Spawn("hi", 9, at(1), func(tc *TC) {
			tc.WithLock(m, func() { tc.Consume(tu(1)) })
			hiDone = tc.Now()
		})
		if err := ex.Run(at(30)); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
		if err := ex.Trace().CheckSingleCPU(); err != nil {
			t.Fatal(err)
		}
		return
	}

	hiPI, midPI := run(true)
	// With PI: lo runs [0,1), hi blocks at 1, lo inherits 9 and finishes
	// its section at 4 despite mid arriving at 2; hi then runs [4,5).
	if hiPI != at(5) {
		t.Errorf("with PI, hi done at %v, want 5", hiPI.TUs())
	}
	if midPI != at(9) {
		t.Errorf("with PI, mid done at %v, want 9", midPI.TUs())
	}

	hiNo, _ := run(false)
	// Without PI: mid preempts lo at 2 for 4tu; lo's section ends at 8;
	// hi runs [8,9). Unbounded inversion (here bounded only by mid's
	// length).
	if hiNo != at(9) {
		t.Errorf("without PI, hi done at %v, want 9", hiNo.TUs())
	}
	if hiPI >= hiNo {
		t.Errorf("PI must strictly improve hi: %v vs %v", hiPI.TUs(), hiNo.TUs())
	}
}

// Transitive inheritance: hi blocks on m2 held by mid, which blocks on m1
// held by lo — lo must inherit hi's priority through the chain.
func TestMutexTransitiveInheritance(t *testing.T) {
	m1 := NewMutex("m1")
	m2 := NewMutex("m2")
	var loFinishedCS rtime.Time
	runExec(t, 40, func(ex *Exec) {
		ex.Spawn("lo", 1, 0, func(tc *TC) {
			tc.WithLock(m1, func() {
				tc.Consume(tu(4))
				loFinishedCS = tc.Now()
			})
		})
		ex.Spawn("mid", 5, at(1), func(tc *TC) {
			tc.WithLock(m2, func() {
				tc.Lock(m1) // blocks on lo
				tc.Consume(tu(1))
				tc.Unlock(m1)
			})
		})
		ex.Spawn("hi", 9, at(2), func(tc *TC) {
			tc.Lock(m2) // blocks on mid, which blocks on lo
			tc.Consume(tu(1))
			tc.Unlock(m2)
		})
		// An interfering priority-7 thread: without transitive
		// inheritance it would preempt lo (eff 5) at 3.
		ex.Spawn("noise", 7, at(3), func(tc *TC) { tc.Consume(tu(5)) })
	})
	// lo runs [0,1) at base, inherits 5 at 1, 9 at 2; noise at 3 must NOT
	// preempt: lo finishes the section at 4.
	if loFinishedCS != at(4) {
		t.Fatalf("lo finished its critical section at %v, want 4 (transitive boost)", loFinishedCS.TUs())
	}
}

func TestMutexBoostDropsAfterUnlock(t *testing.T) {
	m := NewMutex("m")
	var loAfter rtime.Time
	runExec(t, 40, func(ex *Exec) {
		ex.Spawn("lo", 1, 0, func(tc *TC) {
			tc.WithLock(m, func() { tc.Consume(tu(2)) })
			tc.Consume(tu(2)) // back at base priority
			loAfter = tc.Now()
		})
		ex.Spawn("hi", 9, at(1), func(tc *TC) {
			tc.WithLock(m, func() { tc.Consume(tu(1)) })
		})
		ex.Spawn("mid", 5, at(1.5), func(tc *TC) { tc.Consume(tu(3)) })
	})
	// lo boosted [1,2), hi [2,3), then mid (5) outranks lo (1): lo's tail
	// work waits for mid: 3+3=6, lo finishes 6+... lo ran [0,2) incl CS;
	// remaining 2 tail: [6,8).
	if loAfter != at(8) {
		t.Fatalf("lo tail finished at %v, want 8 (boost dropped)", loAfter.TUs())
	}
}

func TestMutexErrors(t *testing.T) {
	m := NewMutex("m")
	ex := NewWithOptions(nil, Options{})
	ex.Spawn("a", 1, 0, func(tc *TC) {
		tc.Lock(m)
		tc.Lock(m) // recursive: panics
	})
	if err := ex.Run(at(5)); err == nil {
		t.Fatal("recursive lock must error")
	}
	ex.Shutdown()

	m2 := NewMutex("m2")
	ex2 := NewWithOptions(nil, Options{})
	ex2.Spawn("b", 1, 0, func(tc *TC) {
		tc.Unlock(m2) // not held
	})
	if err := ex2.Run(at(5)); err == nil {
		t.Fatal("unlocking an unheld mutex must error")
	}
	ex2.Shutdown()
}

// RTSJ defers asynchronous interruption inside synchronized code: a Timed
// expiry during a locked section takes effect only once the lock is
// released, so critical sections never unwind half-way.
func TestInterruptDeferredWhileHoldingLock(t *testing.T) {
	m := NewMutex("m")
	var interrupted bool
	var sectionCompleted bool
	var elapsed rtime.Duration
	runExec(t, 30, func(ex *Exec) {
		ex.Spawn("srv", 1, 0, func(tc *TC) {
			start := tc.Now()
			interrupted = tc.WithBudget(tu(2), func() {
				tc.WithLock(m, func() {
					tc.Consume(tu(4)) // budget expires at 2, mid-lock
					sectionCompleted = true
				})
				tc.Consume(tu(1)) // unwinds here, after the unlock
			})
			elapsed = tc.Now().Sub(start)
		})
	})
	if !interrupted {
		t.Fatal("expected interruption after the critical section")
	}
	if !sectionCompleted {
		t.Fatal("the locked section must complete (deferred AIE)")
	}
	if elapsed != tu(4) {
		t.Fatalf("elapsed = %v, want 4tu (full critical section, no tail)", elapsed)
	}
	if m.Owner() != nil {
		t.Fatal("lock leaked")
	}
}

func TestMutexUncontendedIsZeroTime(t *testing.T) {
	m := NewMutex("m")
	var elapsed rtime.Duration
	runExec(t, 10, func(ex *Exec) {
		ex.Spawn("a", 1, 0, func(tc *TC) {
			start := tc.Now()
			for i := 0; i < 100; i++ {
				tc.Lock(m)
				tc.Unlock(m)
			}
			elapsed = tc.Now().Sub(start)
		})
	})
	if elapsed != 0 {
		t.Fatalf("uncontended lock consumed %v of virtual time", elapsed)
	}
}
