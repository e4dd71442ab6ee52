package exec

import "iter"

// Workers: the coroutines thread bodies run on.
//
// A worker is a resident coroutine (iter.Pull) that runs thread bodies in
// a loop. The Run goroutine is the trampoline that resumes workers (see
// kernel_direct.go): the first time the scheduler picks a thread, Run
// binds it to a free worker — or makes a new one when none is free — and
// resumes it; when the body returns, the thread lets go of the worker
// (runBody), which frees itself and yields back to Run, ready for the next
// body. A worker is
// therefore pinned only while "its" body is in progress (running, or
// suspended mid-body at a kernel call). Since at any instant at most one
// thread executes user code, the number of workers is bounded by the
// peak number of bodies in progress at once — for run-to-completion
// workloads the preemption depth, not the thread count. Creating a
// coroutine costs about a dozen allocations, so workers are kept and
// reused, never made per body: every worker made stays resident until
// Shutdown, so the number made is also the pool's high-water mark. All of
// this happens under the scheduling token, at the two points where a body
// starts (getWorker) and ends (putWorker), so pool sizes are a pure
// function of the schedule.
type workerPool struct {
	free *worker // free workers, most recently freed first
	made int     // workers ever made; none retires, so also the peak
}

// worker is one resident coroutine. resume runs it until its body
// suspends or ends; yield, captured inside the coroutine, suspends it.
type worker struct {
	th     *Thread // the thread whose body the worker runs
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	next   *worker // free-list link
}

// getWorker returns a free worker, or makes one when none is free.
func (ex *Exec) getWorker() *worker {
	p := &ex.pool
	if w := p.free; w != nil {
		p.free = w.next
		w.next = nil
		return w
	}
	p.made++
	ex.stats.PoolSpawns.Inc()
	w := &worker{}
	w.resume, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			w.th.runBody()
			ex.putWorker(w)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return w
}

// putWorker frees w after its body returned.
func (ex *Exec) putWorker(w *worker) {
	p := &ex.pool
	w.next = p.free
	p.free = w
}

// stopWorkers ends every free worker's coroutine. Shutdown calls it once
// every body has unwound, when every remaining worker is free.
func (p *workerPool) stopWorkers() {
	for w := p.free; w != nil; w = w.next {
		w.stop()
	}
	p.free = nil
}
