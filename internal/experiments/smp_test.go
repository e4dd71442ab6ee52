package experiments

import (
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/gen"
	"rtsj/internal/sim"
)

// smpKey identifies one pinned SMP configuration.
type smpKey struct {
	scenario string
	cpus     int
	policy   exec.MigrationPolicy
	sched    string
}

// smpFingerprints pins every canonical SMP sweep at M in {2, 4}. The
// miss-curve values were captured when the tasks could also run as
// looping threads, which matched them exactly; the migration-sweep values
// when the sweep began running one task set at every cost. A change here
// means the multiprocessor schedules changed — intentional changes must
// update the whole table together. Note clustered at M=2 equals global at M=2: one cluster of two
// CPUs is a single global domain.
var smpFingerprints = map[smpKey]uint64{
	{SMPMissCurve, 2, exec.Global, "fp"}:       0x1db12f35969e0720,
	{SMPMissCurve, 4, exec.Global, "fp"}:       0xb8f6d2f346271747,
	{SMPMissCurve, 2, exec.Global, "edf"}:      0x7a91006a7b19c3e6,
	{SMPMissCurve, 4, exec.Global, "edf"}:      0x14777958cb55be22,
	{SMPMissCurve, 2, exec.Partitioned, "fp"}:  0x67b4c9f46c03e472,
	{SMPMissCurve, 4, exec.Partitioned, "fp"}:  0xbfa5b0dfcdd92d30,
	{SMPMissCurve, 2, exec.Partitioned, "edf"}: 0xc316a4ff14ca4362,
	{SMPMissCurve, 4, exec.Partitioned, "edf"}: 0x87831818423084d6,
	{SMPMissCurve, 2, exec.Clustered, "fp"}:    0x1db12f35969e0720,
	{SMPMissCurve, 4, exec.Clustered, "fp"}:    0x44eec1d24ea3c017,
	{SMPMissCurve, 2, exec.Clustered, "edf"}:   0x7a91006a7b19c3e6,
	{SMPMissCurve, 4, exec.Clustered, "edf"}:   0x67556544a0571c36,
	{SMPMigration, 2, exec.Global, "fp"}:       0x4f41887ee1ad5b28,
	{SMPMigration, 4, exec.Global, "fp"}:       0xa1edc36e9a147434,
	{SMPMigration, 2, exec.Global, "edf"}:      0x5b6dfc6dd082a903,
	{SMPMigration, 4, exec.Global, "edf"}:      0x2250bbc6e694038e,
	{SMPMigration, 2, exec.Clustered, "fp"}:    0x4f41887ee1ad5b28,
	{SMPMigration, 4, exec.Clustered, "fp"}:    0x801a153dc88bdc90,
	{SMPMigration, 2, exec.Clustered, "edf"}:   0x5b6dfc6dd082a903,
	{SMPMigration, 4, exec.Clustered, "edf"}:   0x9f84a6a08dbedf68,
}

// TestSMPMatrix runs every pinned SMP configuration once. Its subtests
// keep the names of the retired looping/activation matrix: direct/thread
// requires the fingerprint the looping tasks produced (smpFingerprints),
// direct/activation a clean invariant net, completed releases and, when
// partitioned, no migrations.
func TestSMPMatrix(t *testing.T) {
	for key, want := range smpFingerprints {
		t.Run(testName(key), func(t *testing.T) {
			t.Parallel()
			p := DefaultSMPParams(key.scenario)
			p.CPUs = key.cpus
			p.Policy = key.policy
			p.Sched = key.sched
			r, err := RunSMP(p)
			if err != nil {
				t.Fatal(err)
			}
			t.Run("direct/thread", func(t *testing.T) {
				if r.Fingerprint != want {
					t.Errorf("fingerprint %#x, pinned %#x", r.Fingerprint, want)
				}
			})
			t.Run("direct/activation", func(t *testing.T) {
				if len(r.Violations) != 0 {
					t.Errorf("invariant violations: %v", r.Violations)
				}
				if r.Releases == 0 {
					t.Error("no releases completed")
				}
				if key.policy == exec.Partitioned && r.Migrations != 0 {
					t.Errorf("partitioned run migrated %d times", r.Migrations)
				}
			})
		})
	}
}

func testName(key smpKey) string {
	return key.scenario + "/" + key.policy.String() + "/" + key.sched + "/m" + string(rune('0'+key.cpus))
}

// TestSMPSchedulingProperties pins the qualitative scheduling results on
// the canonical miss-curve workload: EDF dominates fixed priorities under
// global scheduling, global EDF dominates partitioned EDF (the classic
// migration dividend), and higher utilization never lowers the miss count
// within a sweep.
func TestSMPSchedulingProperties(t *testing.T) {
	run := func(pol exec.MigrationPolicy, sched string) *SMPResult {
		p := DefaultSMPParams(SMPMissCurve)
		p.Policy = pol
		p.Sched = sched
		r, err := RunSMP(p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	gfp, gedf, pedf := run(exec.Global, "fp"), run(exec.Global, "edf"), run(exec.Partitioned, "edf")
	if gedf.Misses >= gfp.Misses {
		t.Errorf("global EDF (%d misses) should beat global FP (%d)", gedf.Misses, gfp.Misses)
	}
	if gedf.Misses >= pedf.Misses {
		t.Errorf("global EDF (%d misses) should beat partitioned EDF (%d)", gedf.Misses, pedf.Misses)
	}
	for _, r := range []*SMPResult{gfp, gedf, pedf} {
		last := -1
		for _, pt := range r.Points {
			if pt.Misses < last {
				t.Errorf("%v/%s: miss curve not monotone: %v", r.Policy, r.Sched, r.Points)
			}
			last = pt.Misses
		}
	}
}

// TestSMPMigrationCostHurts checks that the migration sweep is not
// vacuous (the free point migrates), that every point runs the same task
// set (no point skips a release, and all complete as many releases), and
// that the costliest point misses no fewer deadlines than the free one.
func TestSMPMigrationCostHurts(t *testing.T) {
	r, err := RunSMP(DefaultSMPParams(SMPMigration))
	if err != nil {
		t.Fatal(err)
	}
	free, costly := r.Points[0], r.Points[len(r.Points)-1]
	if free.Param != 0 {
		t.Fatalf("first sweep point should be free migration, got %v", free.Param)
	}
	if free.Migrations == 0 {
		t.Fatal("no migrations under global scheduling: sweep is vacuous")
	}
	for _, pt := range r.Points {
		if pt.Skips != 0 {
			t.Fatalf("point %v skipped %d releases: release counts are not comparable", pt.Param, pt.Skips)
		}
		if pt.Releases != free.Releases {
			t.Errorf("point %v completed %d releases, the free point %d: the sweep changed its task set",
				pt.Param, pt.Releases, free.Releases)
		}
	}
	if costly.Misses < free.Misses {
		t.Errorf("costly migration (%d misses) beat free migration (%d)", costly.Misses, free.Misses)
	}
}

// TestSMPParamValidation pins the configuration errors.
func TestSMPParamValidation(t *testing.T) {
	p := DefaultSMPParams(SMPMigration)
	p.Policy = exec.Partitioned
	if _, err := RunSMP(p); err == nil {
		t.Error("partitioned migration sweep should be rejected")
	}
	p = DefaultSMPParams(SMPMissCurve)
	p.Sched = "rr"
	if _, err := RunSMP(p); err == nil {
		t.Error("unknown scheduler should be rejected")
	}
	p = DefaultSMPParams("warp")
	if _, err := RunSMP(p); err == nil {
		t.Error("unknown scenario should be rejected")
	}
}

// TestExecutionTablesSMPM1 pins the tables' M=1 reduction: the calibrated
// execution platform run with an explicit CPUs=1 produces byte-identical
// event records and trace segments to the plain uniprocessor model, so the
// paper's cmd/tables output cannot change under the SMP executive.
func TestExecutionTablesSMPM1(t *testing.T) {
	p := GenParams("(2, 2)")
	systems := gen.Generate(p)[:2]
	for i, base := range systems {
		sys := gen.WithServer(base, p, sim.LimitedPollingServer, 100)
		model := DefaultExecModel()
		model.SysIndex = i
		ref, err := RunExecution(sys, model, p.Horizon())
		if err != nil {
			t.Fatal(err)
		}
		m1 := model
		m1.CPUs = 1
		got, err := RunExecution(sys, m1, p.Horizon())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != len(ref.Records) {
			t.Fatalf("system %d: record counts differ: %d vs %d", i, len(got.Records), len(ref.Records))
		}
		for k := range got.Records {
			if *got.Records[k] != *ref.Records[k] {
				t.Fatalf("system %d record %d differs:\nm1: %+v\nuni: %+v",
					i, k, *got.Records[k], *ref.Records[k])
			}
		}
		if len(got.Trace.Segments) != len(ref.Trace.Segments) {
			t.Fatalf("system %d: segment counts differ", i)
		}
		for k := range got.Trace.Segments {
			if got.Trace.Segments[k] != ref.Trace.Segments[k] {
				t.Fatalf("system %d segment %d differs", i, k)
			}
		}
	}
}

// TestStressSMPM1 pins the stress scenario's M=1 reduction and the
// multi-CPU smoke: CPUs=1 matches the uniprocessor fingerprint exactly,
// and CPUs=4 completes every job with the pinned schedule, captured from
// looping background threads (which activation ones matched).
func TestStressSMPM1(t *testing.T) {
	p := DefaultStressParams()
	p.Jobs = 2000
	uni, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	p.CPUs = 1
	m1, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint != uni.Fingerprint {
		t.Fatalf("CPUs=1 stress fingerprint %#x differs from uniprocessor %#x",
			m1.Fingerprint, uni.Fingerprint)
	}
	p.CPUs = 4
	smp, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Completed != smp.Jobs {
		t.Fatalf("4-CPU stress completed %d of %d jobs", smp.Completed, smp.Jobs)
	}
	if want := uint64(0x3bd688efd75df539); smp.Fingerprint != want {
		t.Fatalf("4-CPU stress fingerprint %#x, pinned %#x", smp.Fingerprint, want)
	}
	if smp.Fingerprint == uni.Fingerprint {
		t.Fatal("4-CPU stress schedule identical to uniprocessor: CPUs not taking effect")
	}
}
