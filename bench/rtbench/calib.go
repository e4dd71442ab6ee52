package main

import (
	"container/heap"
	"encoding/json"
	"runtime"
	"sort"
	"time"
)

// The benchmark shares its machine with other tenants, whose load changes
// the machine's speed by 10-30% over minutes. Timing metrics are therefore
// reported at a reference machine speed: the timed phase is interleaved
// with rounds of a fixed calibration workload, and each op is scaled by
// calibrationRef over the rounds around it (scaleToReference). The
// calibration is frozen
// code of this package, so no change to the repository moves it; it mixes
// the mechanisms the workloads lean on (allocation and garbage collection,
// an event heap, JSON, goroutine handoffs), because a plain arithmetic loop
// tracks the slowdowns the workloads see much less closely. It runs on one
// goroutine: measured against the flood and tables ops, a serial round
// tracked both better than one fanned out over GOMAXPROCS goroutines.

// calibrationRef is the duration of one calibration round on the reference
// machine: scaled times read as if measured on a machine this fast.
const calibrationRef = 3 * time.Millisecond

// calibrationEvery is the op time between calibration rounds.
const calibrationEvery = 100 * time.Millisecond

// scaleToReference scales op times to the reference machine speed. The
// ops between rounds k-1 and k (ends[k] ops have run before round k) are
// scaled by calibrationRef over the median of rounds k-2..k+2: a moving
// median follows the machine's drift but not one round's jitter.
func scaleToReference(ms []float64, rounds []time.Duration, ends []int) {
	start := 0
	for k, end := range ends {
		var window []float64
		for _, r := range rounds[max(0, k-2):min(len(rounds), k+3)] {
			window = append(window, float64(r))
		}
		f := float64(calibrationRef) / median(window)
		for i := start; i < end; i++ {
			ms[i] *= f
		}
		start = end
	}
}

// calibrate runs one round of the calibration workload and returns its
// duration. Collections before and after the round, outside the returned
// time, start every round from the same clean heap and keep the round's
// garbage from burdening the ops that follow.
func calibrate() time.Duration {
	runtime.GC()
	began := time.Now()
	churn()
	eventQueue()
	jsonRoundTrip()
	pingPong(2000)
	d := time.Since(began)
	runtime.GC()
	return d
}

// calSink keeps calibration results alive so no work is optimized away.
var calSink uint64

type calNode struct {
	next *calNode
	v    [6]uint64
}

// churn allocates short-lived linked nodes, indexes some in a map and
// sorts the keys.
func churn() {
	var head *calNode
	m := map[int]*calNode{}
	for i := 0; i < 12000; i++ {
		head = &calNode{next: head, v: [6]uint64{uint64(i)}}
		if i%4 == 0 {
			m[i] = head
		}
		if i%1000 == 999 {
			head = nil
		}
	}
	keys := make([]int, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	calSink += uint64(keys[len(keys)/2])
}

type calEvent struct {
	at float64
	id int
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// eventQueue pushes pseudo-random events through a binary heap, popping
// one for every three pushed.
func eventQueue() {
	q := &calQueue{}
	x := uint64(1)
	for i := 0; i < 4000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		heap.Push(q, &calEvent{at: float64(x >> 40), id: i})
		if i%3 == 2 {
			calSink += uint64(heap.Pop(q).(*calEvent).id)
		}
	}
}

type calRecord struct {
	Point, Lo, Hi int
	Densities     []float64
}

// jsonRoundTrip encodes and decodes a slice of small records.
func jsonRoundTrip() {
	recs := make([]calRecord, 150)
	for i := range recs {
		recs[i] = calRecord{Point: i, Lo: 20 * i, Hi: 20*i + 20, Densities: []float64{0.5, 1, 1.5, 2}}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		panic(err) // plain structs always encode
	}
	var back []calRecord
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err) // the bytes were just encoded
	}
	calSink += uint64(len(back))
}

// pingPong hands a value back and forth between two goroutines n times.
func pingPong(n int) {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < n; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
}
