package faults

import "testing"

// FuzzParse checks the fault-plan parser against arbitrary input: no
// input may panic, and an accepted plan formats to a fixed point: String,
// Parse and String again yields the same text. The seed corpus under
// testdata/fuzz/FuzzParse holds accepted plans and the NaN, infinite,
// out-of-range and negative-jitter plans ParseArgs rejects; run the fuzzer
// with
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 30s ./internal/faults
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		once := p.String()
		again, err := Parse(once)
		if err != nil {
			t.Fatalf("formatted plan %q does not parse: %v", once, err)
		}
		if twice := again.String(); twice != once {
			t.Fatalf("format is not stable: %q, then %q", once, twice)
		}
	})
}
