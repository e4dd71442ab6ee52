package exec

import "testing"

// Committed schedule fingerprints (trace.Trace.Fingerprint) of the
// differential corpus. They were captured from the channel-rendezvous
// kernel in goroutine-per-thread mode — the executive's original reference
// implementation, retired once these values took over its role — and every
// other configuration matched them at the time. A change here means a
// schedule changed: only an intentional change to scheduling semantics may
// update a value, and it must say which.
var referenceFingerprints = map[string]uint64{
	// TestKernelDiff*.
	"preemption":          0x34a1a2c3d64f32ef,
	"sleep-wait-notify":   0x611c2cd0d38dc09a,
	"budget":              0x197116b31638b073,
	"mutex-pi":            0xc4234ed610e24a48,
	"spawn-horizon":       0x624a2dca425248a9,
	"same-instant-cancel": 0x9096ef51d807be0e,
	"continuation@5":      0x17683c6aff2d2a51,
	"continuation@11":     0x6c1f7e70daba3f06,
	"continuation@40":     0x929807234348c3e2,
	// TestKernelDiffFuzz: the per-trial fingerprints folded FNV-1a style,
	// for the full and the -short trial count.
	"fuzz/60-trials": 0xd77febf6d77c6dbc,
	"fuzz/10-trials": 0x2ab4a513898e4c38,
	// TestActivationDiff* (the looping formulation is the reference).
	"activation/basic":    0xb9f83dc0ada06a53,
	"activation/preempt":  0x10aa8fe15f56a11c,
	"activation/overrun":  0x3449511f1bd38e1b,
	"activation/boundary": 0xae2fe0745f4964a4,
	"activation/blocking": 0x348dd1a8778de47b,
	// The miss-policy parity tests.
	"miss/continue-late": 0x8be96877eea5804d,
	"miss/abort":         0xa74356974c07f899,
	// TestWithBudgetUnderInjectedOverruns hashes its own completion order.
	"miss/budget-overruns": 0x9cb1485df4f14fa1,
	// TestWithBudgetZeroAndNegative's channel rows.
	"budget/non-positive": 0xf9e08f544206cb71,
}

// smpCorpusFingerprints pins TestSMPDiffCorpus, keyed like its subtests.
// At M=1 every policy reduces to the uniprocessor schedule, and Clustered
// at M=2 is one two-CPU domain, the same as Global.
var smpCorpusFingerprints = map[string]uint64{
	"parallel-periodics/global/m1":        0x1880656d505b4856,
	"parallel-periodics/global/m2":        0x1a0db6aabeeabcdb,
	"parallel-periodics/global/m4":        0xab846f2f47844463,
	"parallel-periodics/partitioned/m1":   0x1880656d505b4856,
	"parallel-periodics/partitioned/m2":   0x9a23a6bcd71deac9,
	"parallel-periodics/partitioned/m4":   0xf64034b4ae033511,
	"parallel-periodics/clustered/m1":     0x1880656d505b4856,
	"parallel-periodics/clustered/m2":     0x1a0db6aabeeabcdb,
	"parallel-periodics/clustered/m4":     0xc49977ed8ca11ae7,
	"pinned-affinity/global/m1":           0x9b9d5623f8cff48,
	"pinned-affinity/global/m2":           0x1c14b089bd6f5fb6,
	"pinned-affinity/global/m4":           0x826ddd2e29500a46,
	"pinned-affinity/partitioned/m1":      0x9b9d5623f8cff48,
	"pinned-affinity/partitioned/m2":      0xe23410736d114668,
	"pinned-affinity/partitioned/m4":      0xfad373ec785ecd52,
	"pinned-affinity/clustered/m1":        0x9b9d5623f8cff48,
	"pinned-affinity/clustered/m2":        0x1c14b089bd6f5fb6,
	"pinned-affinity/clustered/m4":        0x79d818c4feee7750,
	"sporadic-burst/global/m1":            0x38bebadaf509954a,
	"sporadic-burst/global/m2":            0xcd0234942c700e06,
	"sporadic-burst/global/m4":            0x342ba0d647fc57cb,
	"sporadic-burst/partitioned/m1":       0x38bebadaf509954a,
	"sporadic-burst/partitioned/m2":       0x7ea416513d7a2239,
	"sporadic-burst/partitioned/m4":       0x44e974b83c03f5,
	"sporadic-burst/clustered/m1":         0x38bebadaf509954a,
	"sporadic-burst/clustered/m2":         0xcd0234942c700e06,
	"sporadic-burst/clustered/m4":         0xf2dfdceb0ffaa8d8,
	"mutex-across-cpus/global/m1":         0x19a2dde38bec7a98,
	"mutex-across-cpus/global/m2":         0x26c2b0c9e7e3fccc,
	"mutex-across-cpus/global/m4":         0x9a391391fd61f0d2,
	"mutex-across-cpus/partitioned/m1":    0x19a2dde38bec7a98,
	"mutex-across-cpus/partitioned/m2":    0x7aaed3bf866eed92,
	"mutex-across-cpus/partitioned/m4":    0xcb89152347212404,
	"mutex-across-cpus/clustered/m1":      0x19a2dde38bec7a98,
	"mutex-across-cpus/clustered/m2":      0x26c2b0c9e7e3fccc,
	"mutex-across-cpus/clustered/m4":      0x4c3a6d534e236c24,
	"edf-dynamic-priority/global/m1":      0xe5785aa26167aaba,
	"edf-dynamic-priority/global/m2":      0xe9d2f8a0cb646a00,
	"edf-dynamic-priority/global/m4":      0x763457a980c8a71f,
	"edf-dynamic-priority/partitioned/m1": 0xe5785aa26167aaba,
	"edf-dynamic-priority/partitioned/m2": 0x28788aecb56edc4d,
	"edf-dynamic-priority/partitioned/m4": 0xef44e89cdcf02f15,
	"edf-dynamic-priority/clustered/m1":   0xe5785aa26167aaba,
	"edf-dynamic-priority/clustered/m2":   0xe9d2f8a0cb646a00,
	"edf-dynamic-priority/clustered/m4":   0x2fa2b992d43daf85,
}

// smpFuzzFingerprints pins TestSMPDiffFuzz, indexed by trial (seed 7000+i).
var smpFuzzFingerprints = []uint64{
	0xf6b538d61461b977, 0xd97b5811eb276f2e, 0xf69767e2ba4909ab, 0x79be1ac7889ebc56,
	0xdd2e6290f1f0a24e, 0x77631b59f5dc2aea, 0xbd6f4f778839b7f0, 0xfd85ca2e48f5af38,
	0xcca5361ce21d380, 0x5e070b130f149906, 0x98a4a546627242b9, 0x5661626259d20a04,
	0xb03ded3158ba1b73, 0xc98bccd4d5e58d16, 0xeda049b925c3e4c1, 0xa373cfd0db9d45d9,
	0xe8c9a4f8ea2d5ec7, 0xd8cc760f9c4a897e, 0x147bcfdd7a48eaea, 0x18229ae54b329131,
	0x51911aadb515e769, 0x1584f2098978b467, 0xfa0688d1933b3131, 0xcd285d4a988bc29f,
	0x73ba64e71a1744ce, 0xd5f591aa7c936f0f, 0x6939f19e1ee57122, 0x3dfe3888b82eebc6,
	0x92d22f74822cf498, 0xe10879d6fa06d272, 0x198edf04d117a93f, 0x4ec47c1e13f9f980,
	0x4588d6a29db8f89e, 0xd9bb6102c0b8f9e3, 0x8e85d2a20f193e34, 0xe201db332f8001ae,
	0x5694093db13310ed, 0xd2e213953e73a2db, 0x3dbad9f8265f4850, 0xd34cfb529704b647,
}

// checkPinned fails t unless fp equals the committed reference fingerprint
// for key.
func checkPinned(t *testing.T, key string, fp uint64) {
	t.Helper()
	want, ok := referenceFingerprints[key]
	if !ok {
		t.Fatalf("%s: no committed fingerprint (got %#x)", key, fp)
	}
	if fp != want {
		t.Errorf("%s: reference schedule fingerprint %#x, committed %#x", key, fp, want)
	}
}
