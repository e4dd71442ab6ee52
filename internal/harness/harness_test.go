package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 4, 16, 200} {
		got, err := MapN(workers, len(items), func(i int) (int, error) {
			return items[i] * items[i], nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := MapN(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := MapN(3, 64, func(i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds 3 workers", p)
	}
}

func TestNestedMapBoundsConcurrency(t *testing.T) {
	SetWorkers(3)
	defer SetWorkers(0)
	var cur, peak atomic.Int64
	enter := func() {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
	}
	_, err := MapN(0, 6, func(int) (int, error) {
		_, err := MapN(0, 6, func(int) (int, error) {
			enter()
			runtime.Gosched()
			cur.Add(-1)
			return 0, nil
		})
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf work across both nesting levels shares one process-wide pool:
	// the caller chain plus at most Workers()-1 helpers.
	if p := peak.Load(); p > 3 {
		t.Fatalf("nested peak concurrency %d exceeds Workers()=3", p)
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		_, err := MapN(8, 50, func(i int) (int, error) {
			if i == 7 || i == 31 {
				return 0, fmt.Errorf("unit %d failed", i)
			}
			return 0, nil
		})
		if err == nil || err.Error() != "unit 7 failed" {
			t.Fatalf("trial %d: err = %v, want unit 7 failed", trial, err)
		}
	}
}

func TestMapSingleError(t *testing.T) {
	want := errors.New("boom")
	_, err := MapN(1, 3, func(i int) (int, error) {
		if i == 1 {
			return 0, want
		}
		return 0, nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapN(t *testing.T) {
	got, err := MapN(4, 10, func(i int) (string, error) {
		return fmt.Sprintf("u%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != fmt.Sprintf("u%d", i) {
			t.Fatalf("got[%d] = %q", i, v)
		}
	}
}

func TestWorkersPrecedence(t *testing.T) {
	SetWorkers(0)
	t.Cleanup(func() { SetWorkers(0) })

	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Workers() = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	t.Setenv(EnvWorkers, "3")
	if got := Workers(); got != 3 {
		t.Fatalf("env Workers() = %d, want 3", got)
	}
	SetWorkers(5)
	if got := Workers(); got != 5 {
		t.Fatalf("override Workers() = %d, want 5", got)
	}
	// Invalid env values — non-numeric, zero, negative — all fall back to
	// GOMAXPROCS (with a once-per-process warning on stderr).
	SetWorkers(0)
	for _, bad := range []string{"junk", "0", "-2", "3.5"} {
		t.Setenv(EnvWorkers, bad)
		if got := Workers(); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("%s=%q: Workers() = %d, want GOMAXPROCS", EnvWorkers, bad, got)
		}
	}
}
