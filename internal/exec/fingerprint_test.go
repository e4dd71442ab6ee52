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
var smpCorpusFingerprints = map[string]uint64{
	"parallel-periodics/global/m1": 0x1880656d505b4856,
	"parallel-periodics/global/m2": 0x1a0db6aabeeabcdb,
	"parallel-periodics/global/m4": 0xab846f2f47844463,
	"sporadic-burst/global/m1":     0x38bebadaf509954a,
	"sporadic-burst/global/m2":     0xcd0234942c700e06,
	"sporadic-burst/global/m4":     0x342ba0d647fc57cb,
	"mutex-across-cpus/global/m1":  0x19a2dde38bec7a98,
	"mutex-across-cpus/global/m2":  0x26c2b0c9e7e3fccc,
	"mutex-across-cpus/global/m4":  0x9a391391fd61f0d2,
}

// smpFuzzFingerprints pins TestSMPDiffFuzz, indexed by trial (seed 7000+i).
var smpFuzzFingerprints = []uint64{
	0xf6b538d61461b977, 0xd97b5811eb276f2e, 0x57043d18b042e626, 0x79be1ac7889ebc56,
	0xdd2e6290f1f0a24e, 0x98142ce1de1aaa43, 0xbd6f4f778839b7f0, 0xfd85ca2e48f5af38,
	0xcca5361ce21d380, 0x5e070b130f149906, 0x98a4a546627242b9, 0x5661626259d20a04,
	0xb03ded3158ba1b73, 0xd7a6dfeea707ab46, 0xeda049b925c3e4c1, 0xa373cfd0db9d45d9,
	0x9505d4b9d375f5c1, 0x47fe79885e23d9cf, 0x147bcfdd7a48eaea, 0x18229ae54b329131,
	0x311b6f66c6510f37, 0x1584f2098978b467, 0xfa0688d1933b3131, 0xcd285d4a988bc29f,
	0x73ba64e71a1744ce, 0xd5f591aa7c936f0f, 0x6939f19e1ee57122, 0x3dfe3888b82eebc6,
	0x39dd1bf1a91d4c2f, 0xe10879d6fa06d272, 0x198edf04d117a93f, 0x281052b801fe114,
	0x4588d6a29db8f89e, 0xff69172506a7dd39, 0x8e85d2a20f193e34, 0xe201db332f8001ae,
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
