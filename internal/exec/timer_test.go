package exec

import (
	"fmt"
	"reflect"
	"testing"
)

// TestTimerHandleCancel pins the Timer handle contract: cancelling before
// the fire suppresses the event, cancelling after it is a no-op, and a
// stale handle whose node has been recycled into a newer timer cannot
// cancel that timer (the handle's seq no longer matches).
func TestTimerHandleCancel(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		ex := NewWithOptions(nil, Options{})
		defer ex.Shutdown()
		var fired []string
		note := func(name string) func() {
			return func() { fired = append(fired, fmt.Sprintf("%s@%g", name, ex.Now().TUs())) }
		}
		Timer{}.Cancel() // the zero handle cancels nothing

		// Cancel before the fire, at setup and from an earlier timer.
		ex.At(at(2), note("cancelled-at-setup")).Cancel()
		suppressed := ex.At(at(3), note("suppressed"))
		ex.At(at(1), suppressed.Cancel)

		// Cancel after the fire: no effect on anything still pending.
		first := ex.At(at(4), note("first"))
		later := ex.At(at(6), note("later"))
		ex.At(at(5), first.Cancel)

		// Stale handle: inside this fn the free list's head is the node
		// "later" fired from at 6, so the new timer reuses it.
		ex.At(at(7), func() {
			reused := ex.At(at(8), note("reused"))
			if reused.node != later.node {
				t.Errorf("the timer armed at 7 did not reuse the node freed at 6; the stale-handle case is not exercised")
			}
			later.Cancel()
			first.Cancel()
		})

		if err := ex.Run(at(10)); err != nil {
			t.Fatal(err)
		}
		want := []string{"first@4", "later@6", "reused@8"}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	})
}
