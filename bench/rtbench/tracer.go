package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one recorded call into a layer.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Op     int    `json:"op"`     // replay pass the span belongs to
}

// spansPerComp caps the spans each composition keeps in memory, so every
// composition is in the span file; calls beyond the cap are still timed.
const spansPerComp = 1 << 15

// spanKey names a timing total: one span name within one composition.
type spanKey struct{ comp, name string }

// total accumulates the time of one kind of call.
type total struct {
	ns    int64
	calls int
}

// meanNs is the mean time of one call.
func (t total) meanNs() float64 { return float64(t.ns) / float64(t.calls) }

// tracer records spans in memory and sums their durations by name. A nil
// *tracer records nothing and reads no clock: the untraced passes use it.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	comp    string            // composition being replayed; guarded by mu
	op      int               // current replay pass; guarded by mu
	spans   []span            // guarded by mu
	limit   int               // span count that ends comp's share; guarded by mu
	dropped int               // spans beyond the caps; guarded by mu
	totals  map[spanKey]total // guarded by mu
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: make(map[spanKey]total)}
}

// mark is an open span.
type mark struct {
	i     int // span index, -1 when not kept
	name  string
	start int64
}

// pass starts replay pass op of composition comp.
func (t *tracer) pass(comp string, op int) {
	t.mu.Lock()
	if comp != t.comp {
		t.limit = len(t.spans) + spansPerComp
	}
	t.comp, t.op = comp, op
	t.mu.Unlock()
}

// begin opens a span.
func (t *tracer) begin(name, layer string, parent int) mark {
	if t == nil {
		return mark{i: -1}
	}
	m := mark{i: -1, name: name, start: int64(time.Since(t.epoch))}
	t.mu.Lock()
	if len(t.spans) < t.limit {
		m.i = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Layer: layer, Start: m.start, Parent: parent, Op: t.op})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return m
}

// end closes a span, adds its duration to its total and returns it in ns.
func (t *tracer) end(m mark) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	if m.i >= 0 {
		t.spans[m.i].End = now
	}
	k := spanKey{t.comp, m.name}
	tot := t.totals[k]
	tot.ns += now - m.start
	tot.calls++
	t.totals[k] = tot
	t.mu.Unlock()
	return now - m.start
}

// totalFor returns the accumulated time of the named span in composition comp.
func (t *tracer) totalFor(comp, name string) total {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[spanKey{comp, name}]
}

// write stores the recorded spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Epoch   string `json:"epoch"`
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.epoch.UTC().Format(time.RFC3339Nano), t.dropped, t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
