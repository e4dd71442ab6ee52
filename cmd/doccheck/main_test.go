package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runCmd runs the command in-process and returns its exit status and
// output streams.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeFiles creates the named files under a fresh temporary directory and
// returns it.
func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// cleanPkg is a package whose every exported identifier is documented.
const cleanPkg = `// Package p is documented.
package p

// Answer is documented.
const Answer = 42

// T is a documented type.
type T struct {
	// F is a documented field.
	F int
}

// Do is documented.
func Do() {}
`

// TestUndocumentedIdentifier checks an exported function without a doc
// comment is a file:line: finding with exit status 1.
func TestUndocumentedIdentifier(t *testing.T) {
	dir := writeFiles(t, map[string]string{
		"p/p.go": cleanPkg + "\nfunc Undocumented() {}\n",
		"doc.md": "no links\n",
	})
	code, stdout, stderr := runCmd("-pkgs", filepath.Join(dir, "p"), "-md", filepath.Join(dir, "doc.md"))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stdout %q, stderr %q)", code, stdout, stderr)
	}
	finding := regexp.MustCompile(`(?m)^\S*p\.go:\d+:\d+: exported function Undocumented has no doc comment$`)
	if !finding.MatchString(stdout) {
		t.Errorf("stdout %q lacks a file:line: finding for Undocumented", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("stderr %q does not count the finding", stderr)
	}
}

// TestBrokenMarkdownLink checks a relative link to a missing file is a
// finding with exit status 1, while links to existing files, anchors and
// URLs are not.
func TestBrokenMarkdownLink(t *testing.T) {
	dir := writeFiles(t, map[string]string{
		"p/p.go":       cleanPkg,
		"docs/here.md": "see [there](there.md), [self](here.md#top), [web](https://example.com) and [anchor](#x)\n",
	})
	code, stdout, stderr := runCmd("-pkgs", filepath.Join(dir, "p"), "-md", filepath.Join(dir, "docs"))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stdout, `here.md:1: broken relative link "there.md"`) {
		t.Errorf("stdout %q lacks the broken link finding", stdout)
	}
	if n := strings.Count(stdout, "broken relative link"); n != 1 {
		t.Errorf("%d link findings, want 1:\n%s", n, stdout)
	}
}

// TestCleanInput checks documented code and resolving links exit 0.
func TestCleanInput(t *testing.T) {
	dir := writeFiles(t, map[string]string{
		"p/p.go":    cleanPkg,
		"docs/a.md": "see [b](b.md)\n",
		"docs/b.md": "see [a](a.md)\n",
	})
	code, stdout, stderr := runCmd("-pkgs", filepath.Join(dir, "p"), "-md", filepath.Join(dir, "docs"))
	if code != 0 || stdout != "doccheck: ok\n" || stderr != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and ok", code, stdout, stderr)
	}
}

// TestRejectsBadCommandLines checks an unknown flag and an unreadable
// input exit 2.
func TestRejectsBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		msg  string // substring of stderr
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined: -bogus"},
		{"missing markdown", []string{"-pkgs", "", "-md", "no-such-file.md"}, "no-such-file.md"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if !strings.Contains(stderr, tc.msg) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.msg)
			}
			if stdout != "" {
				t.Errorf("a rejected command line printed %q", stdout)
			}
		})
	}
}
