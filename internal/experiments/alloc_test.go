package experiments

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"rtsj/internal/gen"
	"rtsj/internal/harness"
	"rtsj/internal/sim"
)

// TestAllocsCampaignSystem pins the campaign's steady state at zero
// allocations: on a warmed campaignWorker, one system — generated into
// the worker's gen.Buffer, run on its sim.Runner and folded through its
// event slice — allocates nothing, under every server policy. One measured
// call runs a whole cycle of systems across the stock sweep, and every
// cycle repeats the same systems, so an allocation anywhere in the cycle
// recurs in each of the five measured cycles and fails the test. (The
// average is floored, which only forgives a stray allocation the test
// framework's own goroutines make while a cycle runs.)
func TestAllocsCampaignSystem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; allocation counts are meaningless under -race")
	}
	for pol := sim.NoServer; pol <= sim.SlackStealer; pol++ {
		t.Run(pol.String(), func(t *testing.T) {
			s := DefaultCampaignSpec()
			s.Policy = pol
			type unit struct {
				p gen.Params
				i int
			}
			var units []unit
			for point := range s.Points {
				for i := 0; i < 25; i++ {
					units = append(units, unit{s.pointParams(point), i})
				}
			}
			w := newCampaignWorker()
			systems := 0
			cycle := func() {
				for _, u := range units {
					one, err := w.system(u.p, pol, u.p.Horizon(), u.i)
					if err != nil {
						t.Fatal(err)
					}
					systems += one.Systems
				}
			}
			cycle() // warm-up: the worker's storage grows to the largest system
			// A first collection starting inside the measured cycle would
			// count the runtime's own mark-worker allocations; finish one
			// now.
			runtime.GC()
			if n := testing.AllocsPerRun(5, cycle); n != 0 {
				t.Errorf("%v allocations per %d-system cycle, want 0", n, len(units))
			}
			if want := 7 * len(units); systems != want {
				t.Fatalf("folded %d systems, want %d", systems, want)
			}
		})
	}
}

// TestAllocsTablesSimulationSystem pins the simulation side of Tables 2
// and 4 at zero allocations: on a warmed campaignWorker, one system of a
// table set — its server attached in the worker's gen.Buffer, run on its
// sim.Runner and summarized through its event slice — allocates nothing,
// for PS and DS over all six sets. The systems are generated before the
// measured cycles, as RunSet generates a set once before fanning it out.
func TestAllocsTablesSimulationSystem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; allocation counts are meaningless under -race")
	}
	for _, pol := range []sim.ServerPolicy{sim.PollingServer, sim.DeferrableServer} {
		t.Run(pol.String(), func(t *testing.T) {
			type set struct {
				p       gen.Params
				systems []sim.System
			}
			var sets []set
			for _, key := range SetKeys {
				p := GenParams(key)
				sets = append(sets, set{p, gen.Generate(p)})
			}
			w := newCampaignWorker()
			served := 0
			cycle := func() {
				for _, s := range sets {
					for i, base := range s.systems {
						sum, err := w.setSystem(s.p, base, i, pol, Simulation, ExecModel{})
						if err != nil {
							t.Fatal(err)
						}
						served += sum.Served
					}
				}
			}
			cycle() // warm-up: the worker's storage grows to the largest system
			runtime.GC()
			if n := testing.AllocsPerRun(5, cycle); n != 0 {
				t.Errorf("%v allocations per %d-set cycle, want 0", n, len(sets))
			}
			if served == 0 {
				t.Fatal("no event served across the six sets")
			}
		})
	}
}

// The allocations that remain when a table system executes on a warmed
// campaignWorker are the framework objects the bridge builds for the
// system; the executive, the VM, timer nodes, threads and coroutine
// workers contribute none. TestAllocsTablesExecutionSystem pins them
// exactly with these constants.
const (
	// execAllocsPerEvent is what the bridge builds for each aperiodic
	// event of a system: the event (a core.ServableAsyncEvent, its
	// rtsjvm.AsyncEvent and its servable-handler slice), the handler (a
	// core.ServableAsyncEventHandler) and the timer callback (the closure
	// rtsjvm.VM.FireAt arms for the event's rtsjvm.OneShotTimer).
	execAllocsPerEvent = 5
	// execAllocsPerRelease is the release record a server registers when
	// the event fires before the horizon: one core release holding its
	// EventRecord.
	execAllocsPerRelease = 1
)

// execAllocsPerSystem is what each framework server costs per system,
// on top of the events:
//   - PS: the TaskServerParameters, the PollingTaskServer and its bound
//     run method, its RealtimeThread, the body closure the thread spawns
//     with and the RTC that body receives, and the slice Records returns
//     (7);
//   - DS: the TaskServerParameters, the DeferrableTaskServer, its wakeUp
//     event with its name, its handler slice and the bound runOnce
//     method, the AsyncEventHandler with its wait queue, bound body
//     method and waiter slice, the replenishment PeriodicTimer with its
//     Firable closure, label and bound fire method, and the slice
//     Records returns (15).
var execAllocsPerSystem = map[sim.ServerPolicy]int{
	sim.LimitedPollingServer:    7,
	sim.LimitedDeferrableServer: 15,
}

// TestAllocsTablesExecutionSystem pins the execution side of Tables 3 and
// 5: on a warmed campaignWorker, all 60 table systems run on the worker's
// one VM, reset between systems, and the cycle allocates exactly the
// framework objects above — execAllocsPerEvent per aperiodic event,
// execAllocsPerRelease per registered release and execAllocsPerSystem
// per system. Any allocation by the executive, the VM, a timer node, a
// thread or a coroutine worker breaks the equality.
func TestAllocsTablesExecutionSystem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; allocation counts are meaningless under -race")
	}
	type set struct {
		p       gen.Params
		systems []sim.System
	}
	var sets []set
	events := 0
	for _, key := range SetKeys {
		p := GenParams(key)
		s := set{p, gen.Generate(p)}
		for _, sys := range s.systems {
			events += len(sys.Aperiodics)
		}
		sets = append(sets, s)
	}
	model := DefaultExecModel()
	for _, pol := range []sim.ServerPolicy{sim.LimitedPollingServer, sim.LimitedDeferrableServer} {
		t.Run(pol.String(), func(t *testing.T) {
			w := newCampaignWorker()
			defer w.close()
			systems, releases, served := 0, 0, 0
			cycle := func() {
				systems, releases, served = 0, 0, 0
				for _, s := range sets {
					for i, base := range s.systems {
						sum, err := w.setSystem(s.p, base, i, pol, Execution, model)
						if err != nil {
							t.Fatal(err)
						}
						systems++
						releases += sum.Total
						served += sum.Served
					}
				}
			}
			cycle() // warm-up: the VM's storage grows to the largest system
			runtime.GC()
			want := execAllocsPerEvent*events + execAllocsPerRelease*releases + execAllocsPerSystem[pol]*systems
			if n := testing.AllocsPerRun(5, cycle); n != float64(want) {
				t.Errorf("%v allocations per %d-system cycle (%d events, %d releases), want %d",
					n, systems, events, releases, want)
			}
			if systems != 60 || served == 0 || releases == 0 {
				t.Fatalf("cycle ran %d systems, %d releases, %d served", systems, releases, served)
			}
		})
	}
}

// shardWorkloadRequests records the request stream of one run of the
// sharded workload, the stock sweep at 160 systems per point over two
// shards, as RunCampaignSharded deals it: shard 0's requests, then shard
// 1's. BenchmarkCampaignShardSession records the same stream, so both
// follow the coordinator's dealing.
func shardWorkloadRequests(t *testing.T) (stream []byte, requests int) {
	s := DefaultCampaignSpec()
	s.Systems = 160
	var sent [2]bytes.Buffer
	shards := make([]ShardConn, len(sent))
	for i := range shards {
		reqR, reqW := io.Pipe()
		respR, respW := io.Pipe()
		go func() { respW.CloseWithError(ServeShard(reqR, respW)) }()
		defer reqW.Close()
		shards[i] = ShardConn{R: respR, W: io.MultiWriter(&sent[i], reqW)}
	}
	if _, err := RunCampaignSharded(s, shards, 0); err != nil {
		t.Fatal(err)
	}
	stream = append(sent[0].Bytes(), sent[1].Bytes()...)
	return stream, bytes.Count(stream, []byte{'\n'})
}

// shardAllocsPerRequest is what one request costs a warm shard session:
// decoding the request (the request and its points slice), the reducer
// call's bookkeeping (its state, result ring, fill flags and
// synchronization, and the range's unit and fold closures) and the
// response (the partial it points at and the response value). The systems
// themselves allocate nothing on the session's warm worker.
const shardAllocsPerRequest = 14

// TestAllocsShardSession pins a warm shard session's allocations per
// request: a session serving the sharded workload's request stream three
// times over allocates exactly shardAllocsPerRequest more per extra
// request than a session serving it once, so nothing it builds for the
// first pass is rebuilt for a later one. One harness worker keeps the
// count exact: a helper goroutine's start-up allocations depend on the
// scheduler.
func TestAllocsShardSession(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; allocation counts are meaningless under -race")
	}
	harness.SetWorkers(1)
	defer harness.SetWorkers(0)
	stream, requests := shardWorkloadRequests(t)
	session := func(passes int) float64 {
		in := bytes.Repeat(stream, passes)
		runtime.GC()
		return testing.AllocsPerRun(3, func() {
			if err := ServeShard(bytes.NewReader(in), io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	once, thrice := session(1), session(3)
	if got, want := thrice-once, float64(2*requests*shardAllocsPerRequest); got != want {
		t.Errorf("%v allocations for %d more requests on a warm session, want %v (%d per request)",
			got, 2*requests, want, shardAllocsPerRequest)
	}
}
