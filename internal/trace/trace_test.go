package trace

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rtsj/internal/rtime"
)

func TestRunMergesAdjacent(t *testing.T) {
	tr := New()
	tr.Run("A", rtime.AtTU(0), rtime.AtTU(1), "")
	tr.Run("A", rtime.AtTU(1), rtime.AtTU(2), "")
	if len(tr.Segments) != 1 {
		t.Fatalf("expected merge, got %d segments", len(tr.Segments))
	}
	if got := tr.Segments[0].Dur(); got != rtime.TUs(2) {
		t.Fatalf("merged dur = %v", got)
	}
}

// TestFingerprint pins the hash of a small schedule (so the definition
// cannot drift under the committed fingerprints that use it) and checks
// that every recorded field, and the split of a string between adjacent
// fields, changes it.
func TestFingerprint(t *testing.T) {
	build := func(edit func(tr *Trace)) uint64 {
		tr := New()
		tr.RunOn("A", 1, rtime.AtTU(0), rtime.AtTU(2), "x")
		tr.Run("B", rtime.AtTU(2), rtime.AtTU(3), "")
		tr.Mark("A", rtime.AtTU(2), Completion, "done")
		if edit != nil {
			edit(tr)
		}
		return tr.Fingerprint()
	}
	base := build(nil)
	if base != 0x591d4b8fab55842a {
		t.Errorf("fingerprint %#x, pinned 0x591d4b8fab55842a", base)
	}
	if New().Fingerprint() != 0xcbf29ce484222325 {
		t.Error("an empty trace must hash to the FNV-1a offset basis")
	}
	for name, edit := range map[string]func(tr *Trace){
		"entity":      func(tr *Trace) { tr.Segments[0].Entity = "C" },
		"start":       func(tr *Trace) { tr.Segments[1].Start++ },
		"end":         func(tr *Trace) { tr.Segments[0].End-- },
		"label":       func(tr *Trace) { tr.Segments[0].Label = "y" },
		"cpu":         func(tr *Trace) { tr.Segments[0].CPU = 0 },
		"event at":    func(tr *Trace) { tr.Events[0].At++ },
		"event kind":  func(tr *Trace) { tr.Events[0].Kind = Arrival },
		"event label": func(tr *Trace) { tr.Events[0].Label = "" },
		"field split": func(tr *Trace) { tr.Segments[0].Entity, tr.Segments[0].Label = "Ax", "" },
		"extra event": func(tr *Trace) { tr.Mark("B", rtime.AtTU(3), Completion, "") },
	} {
		if build(edit) == base {
			t.Errorf("changing the %s left the fingerprint unchanged", name)
		}
	}
}

func TestRunNoMergeAcrossLabels(t *testing.T) {
	tr := New()
	tr.Run("S", rtime.AtTU(0), rtime.AtTU(1), "h1")
	tr.Run("S", rtime.AtTU(1), rtime.AtTU(2), "h2")
	if len(tr.Segments) != 2 {
		t.Fatalf("expected 2 segments, got %d", len(tr.Segments))
	}
}

func TestRunDropsEmpty(t *testing.T) {
	tr := New()
	tr.Run("A", rtime.AtTU(1), rtime.AtTU(1), "")
	tr.Run("A", rtime.AtTU(2), rtime.AtTU(1), "")
	if len(tr.Segments) != 0 {
		t.Fatalf("expected no segments, got %d", len(tr.Segments))
	}
}

func TestBusyTime(t *testing.T) {
	tr := New()
	tr.Run("A", rtime.AtTU(0), rtime.AtTU(2), "")
	tr.Run("B", rtime.AtTU(2), rtime.AtTU(3), "")
	tr.Run("A", rtime.AtTU(3), rtime.AtTU(4), "")
	if got := tr.BusyTime("A"); got != rtime.TUs(3) {
		t.Errorf("BusyTime(A) = %v", got)
	}
	if got := tr.TotalBusy(); got != rtime.TUs(4) {
		t.Errorf("TotalBusy = %v", got)
	}
	if got := tr.End(); got != rtime.AtTU(4) {
		t.Errorf("End = %v", got)
	}
}

func TestCheckSingleCPU(t *testing.T) {
	tr := New()
	tr.Run("A", rtime.AtTU(0), rtime.AtTU(2), "")
	tr.Run("B", rtime.AtTU(2), rtime.AtTU(3), "")
	if err := tr.CheckSingleCPU(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	tr.Run("C", rtime.AtTU(2.5), rtime.AtTU(3.5), "")
	if err := tr.CheckSingleCPU(); err == nil {
		t.Fatal("overlapping trace accepted")
	}
}

func TestEntitiesOrder(t *testing.T) {
	tr := New()
	tr.DeclareEntity("PS")
	tr.Run("tau1", rtime.AtTU(0), rtime.AtTU(1), "")
	tr.Mark("e1", rtime.AtTU(0), Arrival, "")
	got := tr.Entities()
	want := []string{"PS", "tau1", "e1"}
	if len(got) != len(want) {
		t.Fatalf("entities = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entities = %v, want %v", got, want)
		}
	}
}

func TestSegmentsAndEventsOf(t *testing.T) {
	tr := New()
	tr.Run("A", rtime.AtTU(0), rtime.AtTU(1), "")
	tr.Run("B", rtime.AtTU(1), rtime.AtTU(2), "")
	tr.Mark("A", rtime.AtTU(1), Completion, "")
	if n := len(tr.SegmentsOf("A")); n != 1 {
		t.Errorf("SegmentsOf(A) = %d", n)
	}
	if n := len(tr.EventsOf("A")); n != 1 {
		t.Errorf("EventsOf(A) = %d", n)
	}
	if n := len(tr.EventsOf("B")); n != 0 {
		t.Errorf("EventsOf(B) = %d", n)
	}
}

func TestGanttBasics(t *testing.T) {
	tr := New()
	tr.Run("PS", rtime.AtTU(0), rtime.AtTU(2), "h1")
	tr.Run("tau1", rtime.AtTU(2), rtime.AtTU(4), "")
	tr.Mark("PS", rtime.AtTU(0), Arrival, "e1")
	g := tr.Gantt(GanttOptions{Until: rtime.AtTU(6)})
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	// axis + tick row + PS row + PS marks + tau1 row
	if len(lines) != 5 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), g)
	}
	var psRow, tauRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "PS ") {
			psRow = l
		}
		if strings.HasPrefix(l, "tau1 ") {
			tauRow = l
		}
	}
	if !strings.Contains(psRow, "##....") {
		t.Errorf("PS row = %q", psRow)
	}
	if !strings.Contains(tauRow, "..##..") {
		t.Errorf("tau1 row = %q", tauRow)
	}
}

func TestGanttPartialColumns(t *testing.T) {
	tr := New()
	tr.Run("A", rtime.AtTU(0.5), rtime.AtTU(1), "")
	g := tr.Gantt(GanttOptions{Until: rtime.AtTU(2)})
	if !strings.Contains(g, "+.") {
		t.Errorf("expected partial column marker:\n%s", g)
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	tr := New()
	g := tr.Gantt(GanttOptions{})
	if g == "" {
		t.Fatal("empty gantt output")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{Arrival, Completion, Interrupted, DeadlineMiss, Replenish, CapacityLost, Custom}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/dup name %q", k, s)
		}
		seen[s] = true
	}
}

// Property: for any set of chronologically recorded, non-overlapping
// segments, CheckSingleCPU accepts, and TotalBusy equals the sum of lengths.
func TestTraceProperties(t *testing.T) {
	f := func(lens []uint8, gaps []uint8) bool {
		tr := New()
		now := rtime.Time(0)
		var want rtime.Duration
		n := len(lens)
		if len(gaps) < n {
			n = len(gaps)
		}
		for i := 0; i < n; i++ {
			l := rtime.Duration(lens[i]%7) * rtime.TU
			g := rtime.Duration(gaps[i]%3) * rtime.TU
			now = now.Add(g)
			tr.Run("A", now, now.Add(l), "")
			now = now.Add(l)
			want += l
		}
		return tr.CheckSingleCPU() == nil && tr.TotalBusy() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Gantt '#' and '+' column counts reflect busy time at 1tu scale.
func TestGanttBusyColumnsProperty(t *testing.T) {
	f := func(lens []uint8) bool {
		tr := New()
		now := rtime.Time(0)
		for _, l := range lens {
			d := rtime.Duration(l%5) * rtime.TU
			tr.Run("A", now, now.Add(d), "")
			now = now.Add(d + rtime.TU) // 1tu idle gap
		}
		g := tr.Gantt(GanttOptions{})
		var full int
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "A ") {
				full = strings.Count(line, "#")
			}
		}
		wantCols := int(tr.TotalBusy() / rtime.TU)
		return full == wantCols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSegmentsSortedByStart(t *testing.T) {
	// The engines record chronologically; verify sort stability assumption.
	tr := New()
	tr.Run("A", rtime.AtTU(0), rtime.AtTU(1), "")
	tr.Run("B", rtime.AtTU(1), rtime.AtTU(2), "")
	tr.Run("A", rtime.AtTU(2), rtime.AtTU(3), "")
	if !sort.SliceIsSorted(tr.Segments, func(i, j int) bool {
		return tr.Segments[i].Start < tr.Segments[j].Start
	}) {
		t.Fatal("segments not chronological")
	}
}
