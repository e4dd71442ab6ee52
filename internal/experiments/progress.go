package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// CampaignOptions is the observability configuration of a campaign run:
// an optional live progress stream. The zero value disables it, and every
// campaign entry point that takes options delegates from its plain variant
// with the zero value — results are bit-identical either way (progress
// goes to its own writer).
type CampaignOptions struct {
	// Progress, when non-nil, receives live progress lines (systems done,
	// throughput, ETA, and — sharded — per-shard health) every
	// progressInterval. cmd front-ends pass os.Stderr so progress never
	// mixes into result output.
	Progress io.Writer
}

// progressInterval is the reporting period of a progress tracker.
const progressInterval = time.Second

// progressTracker emits campaign progress lines on an interval from its
// own goroutine. All methods are nil-receiver-safe, so callers without a
// progress writer carry a nil tracker at zero cost.
type progressTracker struct {
	w        io.Writer
	label    string
	total    int64
	done     atomic.Int64
	health   func() string // optional extra status, e.g. shard health
	start    time.Time
	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// newProgress starts a tracker writing to w every progressInterval, or
// returns nil (a valid no-op tracker) when w is nil. total is the work
// size in systems; label names the unit stream in each line.
func newProgress(w io.Writer, label string, total int64, health func() string) *progressTracker {
	if w == nil {
		return nil
	}
	p := &progressTracker{
		w: w, label: label, total: total, health: health,
		start: time.Now(), stop: make(chan struct{}),
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(progressInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.report(false)
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// add counts n finished systems.
func (p *progressTracker) add(n int64) {
	if p == nil {
		return
	}
	p.done.Add(n)
}

// report writes one progress line. final marks the closing summary line.
func (p *progressTracker) report(final bool) {
	done := p.done.Load()
	elapsed := time.Since(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	line := fmt.Sprintf("%s: %d/%d systems (%.1f%%), %.0f systems/s",
		p.label, done, p.total, 100*float64(done)/float64(p.total), rate)
	if final {
		line += fmt.Sprintf(", done in %.1fs", elapsed)
	} else if rate > 0 && done < p.total {
		line += fmt.Sprintf(", ETA %.0fs", float64(p.total-done)/rate)
	}
	if p.health != nil {
		if h := p.health(); h != "" {
			line += ", " + h
		}
	}
	fmt.Fprintln(p.w, line)
}

// close stops the reporting goroutine and writes the final summary line.
// Idempotent and nil-safe.
func (p *progressTracker) close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() {
		close(p.stop)
		p.wg.Wait()
		p.report(true)
	})
}
