package sim

import (
	"fmt"
	"math"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// jobHeap is a binary max-heap of periodic jobs ordered by (priority desc,
// seq asc). The running job stays at the top until it completes.
type jobHeap struct{ a []*Job }

func (h *jobHeap) less(i, j int) bool {
	if h.a[i].Priority != h.a[j].Priority {
		return h.a[i].Priority > h.a[j].Priority
	}
	return h.a[i].seq < h.a[j].seq
}

func (h *jobHeap) swap(i, j int) { h.a[i], h.a[j] = h.a[j], h.a[i] }

func (h *jobHeap) push(j *Job) {
	h.a = append(h.a, j)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *jobHeap) peek() *Job {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

func (h *jobHeap) pop() *Job {
	n := len(h.a)
	if n == 0 {
		return nil
	}
	top := h.a[0]
	h.a[0] = h.a[n-1]
	h.a = h.a[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		h.swap(i, m)
		i = m
	}
	return top
}

func (h *jobHeap) remove(j *Job) bool {
	for i, x := range h.a {
		if x == j {
			// Replace with last, then restore heap order by rebuilding
			// the affected path. Simplest correct approach: rebuild.
			h.a[i] = h.a[len(h.a)-1]
			h.a = h.a[:len(h.a)-1]
			old := h.a
			h.a = nil
			for _, y := range old {
				h.push(y)
			}
			return true
		}
	}
	return false
}

func (h *jobHeap) len() int { return len(h.a) }

// server is the interface between the FP dispatcher and an aperiodic
// servicing policy.
type server interface {
	// reset returns the server to its initial state for spec, keeping its
	// queue capacity.
	reset(spec ServerSpec)
	name() string
	priority() int
	// arrive enqueues an aperiodic job. The server may reattribute the
	// job's trace row (Entity/Label).
	arrive(now rtime.Time, j *Job)
	// tick processes internal events (replenishments, activations) due at
	// or before now.
	tick(now rtime.Time, tr *trace.Trace)
	// pick returns the job the server wants to run now and a bound on how
	// long it may run before the server needs control again (0 = no bound).
	pick(now rtime.Time) (*Job, rtime.Duration)
	// nextEvent returns the next internal event instant (rtime.Never if none).
	nextEvent(now rtime.Time) rtime.Time
	// consumed charges delta of service; it may abort the job.
	consumed(now rtime.Time, j *Job, delta rtime.Duration, tr *trace.Trace)
	// completed removes a finished job.
	completed(now rtime.Time, j *Job)
}

// newServer returns an unconfigured server of the policy; reset
// configures it.
func newServer(p ServerPolicy) server {
	switch p {
	case NoServer:
		return new(background)
	case PollingServer:
		return new(psIdeal)
	case DeferrableServer:
		return new(dsIdeal)
	case LimitedPollingServer:
		return new(psLimited)
	case LimitedDeferrableServer:
		return new(dsLimited)
	case SporadicServer:
		return new(ss)
	case PriorityExchange:
		return new(peServer)
	case SlackStealer:
		return new(slackStealer)
	default:
		panic(fmt.Sprintf("sim: unknown server policy %v", p))
	}
}

// FP is the preemptive fixed-priority dispatcher, optionally extended with
// an aperiodic task server, as in the paper's RTSS.
type FP struct {
	ready  jobHeap
	srv    server
	policy ServerPolicy // srv's policy
	tr     *trace.Trace
}

// NewFP builds a fixed-priority dispatcher for sys. Aperiodic jobs are
// routed to the configured server; without a server they are executed in the
// background (lowest priority), the baseline discussed in Section 2 of the
// paper.
func NewFP(sys System, tr *trace.Trace) *FP {
	d := new(FP)
	d.reset(sys, tr)
	return d
}

// reset prepares the dispatcher for a run of sys. It keeps the ready
// heap's capacity and, when the policy is unchanged, the server itself:
// a Runner resets one dispatcher per run instead of building a new one.
func (d *FP) reset(sys System, tr *trace.Trace) {
	spec := ServerSpec{Policy: NoServer}
	if sys.Server != nil {
		spec = *sys.Server
	}
	if d.srv == nil || d.policy != spec.Policy {
		d.srv, d.policy = newServer(spec.Policy), spec.Policy
	}
	d.srv.reset(spec)
	if st, ok := d.srv.(*slackStealer); ok {
		st.sys, st.fp = sys, d
	}
	d.ready.a = d.ready.a[:0]
	d.tr = tr
	if tr != nil && spec.Policy != NoServer {
		tr.DeclareEntity(spec.name())
	}
}

// Name implements Dispatcher.
func (d *FP) Name() string { return "FP+" + d.srv.name() }

// Release implements Dispatcher.
func (d *FP) Release(now rtime.Time, j *Job) {
	if j.Periodic {
		d.ready.push(j)
		return
	}
	d.srv.arrive(now, j)
}

// Tick implements Dispatcher.
func (d *FP) Tick(now rtime.Time) { d.srv.tick(now, d.tr) }

// Pick implements Dispatcher.
func (d *FP) Pick(now rtime.Time) (*Job, rtime.Duration) {
	pj := d.ready.peek()
	sj, slice := d.srv.pick(now)
	if sj != nil && (pj == nil || d.srv.priority() >= pj.Priority) {
		return sj, slice
	}
	if pj != nil {
		return pj, 0
	}
	return sj, slice
}

// NextEvent implements Dispatcher.
func (d *FP) NextEvent(now rtime.Time) rtime.Time { return d.srv.nextEvent(now) }

// Consumed implements Dispatcher.
func (d *FP) Consumed(now rtime.Time, j *Job, delta rtime.Duration) {
	if !j.Periodic {
		d.srv.consumed(now, j, delta, d.tr)
		return
	}
	if obs, ok := d.srv.(exchangeObserver); ok {
		obs.observeRun(now, j.Priority, delta)
	}
}

// Idle implements IdleObserver: idle processor time is reported to servers
// that exchange capacity (PE loses preserved capacity to idleness).
func (d *FP) Idle(now rtime.Time, delta rtime.Duration) {
	if obs, ok := d.srv.(exchangeObserver); ok {
		obs.observeIdle(now, delta)
	}
}

// Completed implements Dispatcher.
func (d *FP) Completed(now rtime.Time, j *Job) {
	if j.Periodic {
		if !d.ready.remove(j) {
			panic(fmt.Sprintf("sim: completed periodic job %s not in ready heap", j.Name()))
		}
		return
	}
	d.srv.completed(now, j)
}

// background serves aperiodics FIFO at the lowest possible priority.
type background struct{ queue fifoQueue }

func (b *background) reset(ServerSpec) { b.queue = b.queue.reuse() }

func (b *background) name() string  { return "BG" }
func (b *background) priority() int { return math.MinInt }

func (b *background) arrive(now rtime.Time, j *Job) { b.queue.push(j) }

func (b *background) tick(rtime.Time, *trace.Trace) {}

func (b *background) pick(rtime.Time) (*Job, rtime.Duration) {
	if b.queue.empty() {
		return nil, 0
	}
	return b.queue.head(), 0
}

func (b *background) nextEvent(rtime.Time) rtime.Time { return rtime.Never }

func (b *background) consumed(rtime.Time, *Job, rtime.Duration, *trace.Trace) {}

func (b *background) completed(now rtime.Time, j *Job) {
	if b.queue.empty() || b.queue.head() != j {
		panic("sim: background completed job is not queue head")
	}
	b.queue.remove(j)
}
