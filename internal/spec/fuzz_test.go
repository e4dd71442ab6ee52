package spec

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the parser. Hostile input must give an
// error, never a panic, and any input Parse accepts must format to a
// fixed point: Format, Parse and Format again yields the same text. The
// seed corpus under testdata/fuzz/FuzzParse holds the cmd/rtss golden
// systems and one rtgen system; run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 30s ./internal/spec
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		once := Format(parsed)
		again, err := Parse(strings.NewReader(once))
		if err != nil {
			t.Fatalf("formatted file does not parse: %v\n%s", err, once)
		}
		if twice := Format(again); twice != once {
			t.Fatalf("format is not stable:\n--- first ---\n%s\n--- second ---\n%s", once, twice)
		}
	})
}
