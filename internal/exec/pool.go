package exec

import "sync"

// workerPool multiplexes thread bodies over a bounded set of goroutines
// (Options.MaxGoroutines).
//
// Why a pool is possible at all: at any instant at most one thread
// executes user code (even with several virtual CPUs, occupants take their
// zero-time steps one at a time), and the scheduler hands a brand-new
// thread to the pool only at that single point: the token owner's handoff.
// A worker is therefore pinned only while "its" body is in progress
// (running, or parked mid-body at a kernel call); when the body returns,
// the worker is recycled for the next unstarted thread. For
// run-to-completion workloads the number of bodies simultaneously in
// progress — and hence the number of live workers — is bounded by the
// preemption depth, not by the thread count.
//
// Worker accounting is race-free by construction: a finishing body calls
// bodyFinished *before* the scheduling token moves on (before the
// successor is woken or started), so when the scheduler next starts an
// unstarted thread, the just-freed worker is already counted available and is reused
// instead of spawning a fresh goroutine. The pool's peak size therefore
// equals the true peak of concurrently in-progress bodies.
//
// Resident-size semantics: maxResident is the number of workers kept alive
// once free. If a start arrives while every worker is pinned, a fresh
// worker is spawned regardless of the cap (refusing would deadlock the
// executive); a worker above the cap retires when its body finishes while
// another worker is already available — if it is the only candidate to
// serve an immediately following start, it is kept and reused instead
// (burst workloads would otherwise retire a worker and respawn one a
// moment later for every job). The pool therefore converges back to
// maxResident as bodies finish, one retirement per finish, rather than
// oscillating. All accounting happens at the two synchronous points
// (startThread, bodyFinished) under the scheduling token, so pool sizes
// are deterministic for a deterministic schedule.
//
// Fate plumbing: bodyFinished decides whether the finishing worker rejoins
// the pool or retires, and records the verdict in the worker's own
// workerFate struct (bound to the thread, under the pool mutex, for the
// duration of one body). The fate cannot live on the Thread itself: an
// activation entity's Thread is dispatched once per release, so a later
// release's bodyFinished on another worker would race with this worker's
// post-body read.
type workerPool struct {
	mu          sync.Mutex
	cond        sync.Cond
	queue       []*Thread // unstarted threads awaiting a worker; guarded by mu
	avail       int       // workers free to take from the queue (idle or finishing up); guarded by mu
	live        int       // all pool goroutines; guarded by mu
	peak        int       // high-water mark of live; guarded by mu
	spawned     int       // total goroutines ever created; guarded by mu
	maxResident int       // set once by init, immutable afterwards
	closed      bool      // guarded by mu
}

func (p *workerPool) init(maxResident int) {
	p.cond.L = &p.mu
	p.maxResident = maxResident
}

// peakWorkers returns the high-water mark of simultaneously live workers.
func (p *workerPool) peakWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// spawnedWorkers returns the total number of worker goroutines ever
// created.
func (p *workerPool) spawnedWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spawned
}

// startThread hands th's body to a worker: an available one if any,
// otherwise a freshly spawned goroutine.
func (ex *Exec) startThread(th *Thread) {
	p := &ex.pool
	p.mu.Lock()
	p.queue = append(p.queue, th)
	if ex.statsOn {
		ex.stats.PoolQueueMax.Max(int64(len(p.queue)))
	}
	if p.avail >= len(p.queue) {
		p.cond.Signal()
	} else {
		p.live++
		p.avail++
		p.spawned++
		if p.live > p.peak {
			p.peak = p.live
		}
		ex.stats.PoolSpawns.Inc()
		go ex.poolWorker()
	}
	p.mu.Unlock()
}

// workerFate is a pool worker's per-body verdict, written by bodyFinished
// (on the worker's own goroutine) and read by the worker after the body
// returns. Each dispatch gets a fresh zero value.
type workerFate struct {
	retire  bool // bodyFinished dropped this worker from live; exit now
	counted bool // bodyFinished already counted this worker in avail
}

// bodyFinished records that th's body returned and its worker is about to
// rejoin the pool — or retire, when the pool is over its resident size AND
// another worker is already available to serve an immediately following
// start. Keeping the only available worker (even over-cap) lets a burst's
// next thread reuse it instead of spawning a replacement; the pool still
// drains back to maxResident because each subsequent finish that does see
// an available worker retires one. Must be called in the worker's
// goroutine before the scheduling token is handed on (see the package
// comment for why that makes reuse race-free).
func (ex *Exec) bodyFinished(th *Thread) {
	p := &ex.pool
	p.mu.Lock()
	w := th.worker
	if p.live > p.maxResident && p.avail > 0 {
		p.live--
		w.retire = true
		ex.stats.PoolRetires.Inc()
		p.cond.Broadcast() // close() waits on live==0
	} else {
		p.avail++
		w.counted = true
	}
	p.mu.Unlock()
}

// close retires every worker and waits for them to exit, so Shutdown
// leaves no goroutines behind. Must be called after Shutdown has unwound
// all started thread bodies.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	for p.live > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// poolWorker runs thread bodies until the pool closes or the worker is
// retired as over-cap. counted tracks whether this worker is currently
// included in p.avail. Each body dispatch binds a fresh fate struct to the
// thread (under the pool mutex); a body that never reaches bodyFinished —
// a thread killed during shutdown — leaves the zero fate, which makes the
// worker re-count itself and then observe the closed pool.
func (ex *Exec) poolWorker() {
	p := &ex.pool
	counted := true // startThread counted the spawn in avail
	// One fate struct per worker, reset and re-bound per dispatch: only
	// the worker currently running a body (and bodyFinished on its
	// goroutine) touches it, so reuse is race-free and keeps the dispatch
	// path allocation-free.
	var fate workerFate
	for {
		p.mu.Lock()
		if !counted {
			p.avail++
			counted = true
		}
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.avail--
			p.live--
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		// Pop the front in place so startThread's append keeps reusing
		// the backing array (the queue is rarely more than one deep).
		th := p.queue[0]
		n := copy(p.queue, p.queue[1:])
		p.queue[n] = nil
		p.queue = p.queue[:n]
		p.avail--
		if len(p.queue) > 0 && p.avail > 0 {
			// Propagate the wakeup: with more queued starts and more
			// available workers, one Signal per enqueue is not enough once
			// the queue runs deeper than one (a woken worker may consume a
			// signal meant for a start that arrived while it was waking).
			p.cond.Signal()
		}
		fate = workerFate{}
		th.worker = &fate
		p.mu.Unlock()
		counted = false

		th.runBody()

		if fate.retire {
			return // bodyFinished already dropped it from live
		}
		counted = fate.counted
	}
}
