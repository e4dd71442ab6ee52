package rtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTUConversions(t *testing.T) {
	cases := []struct {
		tu   float64
		want Duration
	}{
		{0, 0},
		{1, Millisecond},
		{3, 3 * Millisecond},
		{0.1, 100 * Microsecond},
		{2.5, 2500 * Microsecond},
		{-1, -Millisecond},
	}
	for _, c := range cases {
		if got := TUs(c.tu); got != c.want {
			t.Errorf("TUs(%v) = %v, want %v", c.tu, int64(got), int64(c.want))
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := AtTU(2)
	t1 := t0.Add(TUs(3))
	if t1 != AtTU(5) {
		t.Fatalf("Add: got %v want %v", t1, AtTU(5))
	}
	if d := t1.Sub(t0); d != TUs(3) {
		t.Fatalf("Sub: got %v want %v", d, TUs(3))
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatalf("ordering broken: %v vs %v", t0, t1)
	}
}

func TestMinMax(t *testing.T) {
	a, b := AtTU(1), AtTU(2)
	if Min(a, b) != a || Min(b, a) != a {
		t.Errorf("Min wrong")
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Errorf("Max wrong")
	}
	if MinDur(TUs(1), TUs(2)) != TUs(1) {
		t.Errorf("MinDur wrong")
	}
	if MaxDur(TUs(1), TUs(2)) != TUs(2) {
		t.Errorf("MaxDur wrong")
	}
}

func TestDivCeilFloor(t *testing.T) {
	cases := []struct {
		a, b        Duration
		ceil, floor int64
	}{
		{0, TU, 0, 0},
		{TU, TU, 1, 1},
		{TU + 1, TU, 2, 1},
		{5 * TU, 2 * TU, 3, 2},
		{6 * TU, 2 * TU, 3, 3},
		{-TU, TU, 0, -1},
	}
	for _, c := range cases {
		if got := DivCeil(c.a, c.b); got != c.ceil {
			t.Errorf("DivCeil(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
		if got := DivFloor(c.a, c.b); got != c.floor {
			t.Errorf("DivFloor(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
	}
}

func TestDivCeilPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DivCeil(TU, 0)
}

func TestString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{3 * TU, "3tu"},
		{TUs(2.5), "2.5tu"},
		{TUs(0.1), "0.1tu"},
		{0, "0tu"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", c.d, got, c.want)
		}
	}
	if got := AtTU(12).String(); got != "t=12tu" {
		t.Errorf("Time.String = %q", got)
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
		ok   bool
	}{
		{"3tu", 3 * TU, true},
		{"2.5tu", TUs(2.5), true},
		{"3ms", 3 * Millisecond, true},
		{"250us", 250 * Microsecond, true},
		{"1s", Second, true},
		{"7", 7 * TU, true},
		{" 4 tu", 4 * TU, true},
		{"abc", 0, false},
		{"", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
		{"-Inf", 0, false},
		{"1e300", 0, false},
		{"9.3e12", 0, false},
		{"-9.3e12tu", 0, false},
		{"9.2e12", TUs(9.2e12), true},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseDuration(%q) succeeded, want error", c.in)
		}
	}
}

func TestParseRoundTripsString(t *testing.T) {
	f := func(ms int32) bool {
		d := Duration(ms) * Millisecond
		got, err := ParseDuration(d.String())
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivCeilProperty(t *testing.T) {
	// DivCeil(a,b) is the least k with k*b >= a, for a >= 0.
	f := func(a uint16, b uint8) bool {
		bb := Duration(b) + 1
		aa := Duration(a)
		k := DivCeil(aa, bb)
		return Duration(k)*bb >= aa && (k == 0 || Duration(k-1)*bb < aa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTUsRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		tu := float64(n) / 10 // 0.1 tu granularity like the paper
		d := TUs(tu)
		return math.Abs(d.TUs()-tu) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
