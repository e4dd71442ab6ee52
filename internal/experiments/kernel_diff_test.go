package experiments

import (
	"testing"

	"rtsj/internal/core"
	"rtsj/internal/gen"
	"rtsj/internal/sim"
)

// tablesFingerprints pins recordsFingerprint of the reference execution of
// each system TestExecutionTablesKernelIndependent runs, keyed like its
// subtests. The values were captured from the executive's former
// channel-rendezvous reference kernel in goroutine-per-thread mode, which
// every configuration matched at the time.
var tablesFingerprints = map[string][]uint64{
	"(2, 2)/PS-lim": {0xf9fe30c889df14aa, 0xf7c55facd08591fb, 0x998797fb74f0a82f},
	"(1, 0)/DS-lim": {0x74244d096755717, 0xa31695602dbc313d, 0x7885cc021032b83b},
}

// recordsFingerprint hashes every field of the event records, in order,
// with the package's FNV-1a fold.
func recordsFingerprint(records []*core.EventRecord) uint64 {
	h := uint64(14695981039346656037)
	fold := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, r := range records {
		for i := 0; i < len(r.Handler); i++ {
			fold(uint64(r.Handler[i]))
		}
		fold(uint64(r.Released))
		fold(uint64(r.Started))
		fold(uint64(r.Finished))
		var flags uint64
		for i, b := range []bool{r.Served, r.Interrupted, r.Rejected, r.Shed} {
			if b {
				flags |= 1 << i
			}
		}
		fold(flags)
		fold(uint64(r.Predicted))
	}
	return h
}

// TestExecutionTablesKernelIndependent pins the execution tables (3 and
// 5) over the paper's generated system sets: the event records of each
// traced execution must match their committed fingerprints, and the
// metrics-only fast path must reproduce them exactly. The test once also
// compared looping against activation periodic threads, but that half
// compared nothing: the generated sets carry no periodic tasks (gen never
// sets Periodics), so both runs executed the same aperiodic handlers.
func TestExecutionTablesKernelIndependent(t *testing.T) {
	for _, cfg := range []struct {
		key    string
		policy sim.ServerPolicy
	}{
		{"(2, 2)", sim.LimitedPollingServer},
		{"(1, 0)", sim.LimitedDeferrableServer},
	} {
		cfg := cfg
		name := cfg.key + "/" + cfg.policy.String()
		t.Run(name, func(t *testing.T) {
			p := GenParams(cfg.key)
			systems := gen.Generate(p)
			if len(systems) > 3 {
				systems = systems[:3] // three systems per set keep the test fast
			}
			model := DefaultExecModel()
			for i, base := range systems {
				sys := gen.WithServer(base, p, cfg.policy, 100)
				model.SysIndex = i

				co, err := RunExecution(sys, model, p.Horizon())
				if err != nil {
					t.Fatal(err)
				}
				if len(co.Records) == 0 {
					t.Fatalf("system %d: no event records; workload is empty", i)
				}
				if fp, want := recordsFingerprint(co.Records), tablesFingerprints[name][i]; fp != want {
					t.Errorf("system %d: reference records fingerprint %#x, committed %#x", i, fp, want)
				}
				// The metrics-only fast path (trace.Nop through the whole
				// executive) must not perturb the schedule: identical event
				// records, no trace.
				mo, err := RunExecutionMetrics(sys, model, p.Horizon())
				if err != nil {
					t.Fatal(err)
				}
				if mo.Trace != nil {
					t.Fatalf("system %d: metrics-only execution carries a trace", i)
				}
				if len(mo.Records) != len(co.Records) {
					t.Fatalf("system %d: metrics-only record count differs: %d vs %d",
						i, len(mo.Records), len(co.Records))
				}
				for k := range mo.Records {
					if *mo.Records[k] != *co.Records[k] {
						t.Fatalf("system %d record %d differs on the metrics-only path:\nnop:   %+v\ntrace: %+v",
							i, k, *mo.Records[k], *co.Records[k])
					}
				}
			}
		})
	}
}
