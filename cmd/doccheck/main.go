// Command doccheck is the repository's documentation gate, run by CI next
// to go vet:
//
//   - every exported identifier (types, funcs, methods, consts, vars and
//     exported struct fields) in the audited packages must carry a doc
//     comment;
//   - the doc comment of an exported func, method, type, const or var must
//     begin with the identifier it documents (types may lead with "A", "An"
//     or "The"), per standard Go doc style; struct fields are exempt;
//   - every relative link in the audited markdown files must resolve to an
//     existing file or directory.
//
// Usage:
//
//	doccheck [-pkgs dir,dir,...] [-md file-or-dir,...]
//
// Exit status is 1 if any check finds something, each finding printed as
// file:line: message, and 2 for a malformed command line or an unreadable
// input.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs both checks and returns
// the exit status — 0 when clean, 1 when there are findings, 2 for a
// malformed command line or an input it cannot read.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("doccheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pkgs := fs.String("pkgs", "internal/core,internal/exec,internal/rtsjvm,internal/trace,internal/harness,internal/sim,internal/experiments,internal/gen,internal/metrics,internal/analysis,internal/spec,internal/faults,internal/lint,internal/obs",
		"comma-separated package directories to check for missing doc comments")
	md := fs.String("md", "README.md,docs",
		"comma-separated markdown files or directories to link-check")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var findings []string
	for _, check := range []struct {
		list string
		fn   func(string) ([]string, error)
	}{{*pkgs, checkPackageDocs}, {*md, checkMarkdownLinks}} {
		for _, target := range strings.Split(check.list, ",") {
			target = strings.TrimSpace(target)
			if target == "" {
				continue
			}
			found, err := check.fn(target)
			if err != nil {
				fmt.Fprintf(stderr, "doccheck: %v\n", err)
				return 2
			}
			findings = append(findings, found...)
		}
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "doccheck: %d finding(s)\n", len(findings))
		return 1
	}
	fmt.Fprintln(stdout, "doccheck: ok")
	return 0
}

// checkPackageDocs parses every non-test Go file in dir and reports
// exported identifiers without a doc comment.
func checkPackageDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgMap, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", dir, err)
	}
	var findings []string
	report := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	for _, pkg := range pkgMap {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedRecv(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), "exported %s %s has no doc comment", funcKind(d), funcName(d))
					} else if !docStartsWith(d.Doc, d.Name.Name, false) {
						report(d.Doc.Pos(), "doc comment for %s %s should start with %q",
							funcKind(d), funcName(d), d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return findings, nil
}

// exportedRecv reports whether a method's receiver type is exported (or
// the decl is a plain function). Methods on unexported types are internal.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) > 0 {
		t := d.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + d.Name.Name
		}
	}
	return d.Name.Name
}

// checkGenDecl audits a type/const/var declaration: each exported name
// needs a doc comment on the spec or the enclosing decl, and exported
// struct fields need their own comments.
func checkGenDecl(d *ast.GenDecl, report func(pos token.Pos, format string, args ...any)) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			// The effective doc: the spec's own, or for a single-spec decl
			// the decl's (the usual "// Foo is ..." above "type Foo ...").
			doc := s.Doc
			if doc == nil && len(d.Specs) == 1 {
				doc = d.Doc
			}
			if s.Doc == nil && d.Doc == nil {
				report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
			} else if doc != nil && !docStartsWith(doc, s.Name.Name, true) {
				report(doc.Pos(), "doc comment for type %s should start with %q (optionally after A/An/The)",
					s.Name.Name, s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok {
				checkStructFields(s.Name.Name, st, report)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				// A doc on the spec, a trailing line comment, or a doc on
				// the whole const/var block all count.
				if s.Doc == nil && s.Comment == nil && d.Doc == nil {
					report(name.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
				}
			}
			// The identifier-first style applies only where the doc
			// unambiguously documents a single name: a spec-level doc on a
			// one-name spec, or a decl-level doc on a one-spec one-name
			// decl. Group docs ("// Sizing knobs." over a const block) and
			// trailing line comments are exempt.
			if len(s.Names) == 1 && s.Names[0].IsExported() {
				doc := s.Doc
				if doc == nil && len(d.Specs) == 1 {
					doc = d.Doc
				}
				if doc != nil && !docStartsWith(doc, s.Names[0].Name, false) {
					report(doc.Pos(), "doc comment for %s %s should start with %q",
						d.Tok, s.Names[0].Name, s.Names[0].Name)
				}
			}
		}
	}
}

// docStartsWith reports whether the doc comment's first word is the
// identifier name, per standard Go doc style. Types (allowArticle) may lead
// with "A", "An" or "The"; a "Deprecated:" opener is always accepted.
func docStartsWith(doc *ast.CommentGroup, name string, allowArticle bool) bool {
	text := strings.TrimSpace(doc.Text())
	if text == "" {
		return false
	}
	fields := strings.Fields(text)
	if fields[0] == "Deprecated:" {
		return true
	}
	if allowArticle && len(fields) > 1 {
		switch fields[0] {
		case "A", "An", "The":
			fields = fields[1:]
		}
	}
	return fields[0] == name || strings.HasPrefix(fields[0], name+"'") ||
		strings.TrimRight(fields[0], ".,:;") == name
}

func checkStructFields(typeName string, st *ast.StructType, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			continue // embedded field: documented by its own type
		}
		for _, name := range f.Names {
			if !name.IsExported() {
				continue
			}
			if f.Doc == nil && f.Comment == nil {
				report(name.Pos(), "exported field %s.%s has no doc comment", typeName, name.Name)
			}
		}
	}
}

// mdLink matches markdown links and images; group 1 is the target.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdownLinks walks root (a file or directory) and verifies every
// relative link target exists.
func checkMarkdownLinks(root string) ([]string, error) {
	info, err := os.Stat(root)
	if err != nil {
		return nil, err
	}
	var files []string
	if info.IsDir() {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		files = []string{root}
	}
	var findings []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
					strings.HasPrefix(target, "#") {
					continue
				}
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					findings = append(findings,
						fmt.Sprintf("%s:%d: broken relative link %q (%s does not exist)",
							file, i+1, m[1], resolved))
				}
			}
		}
	}
	return findings, nil
}
