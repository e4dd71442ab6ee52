package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DeterministicPackages names the packages whose output feeds schedules,
// fingerprints and tables: everything inside them must be a pure function
// of (inputs, seed). The harness and experiments layers sit outside — they
// may read the environment (worker counts) because they only decide *how*
// the deterministic work is executed, never *what* it computes.
var DeterministicPackages = []string{
	"sim", "exec", "gen", "metrics", "faults", "rtime", "spec", "trace", "rtsjvm",
}

// NonDeterm forbids nondeterminism sources in the deterministic packages:
// wall-clock reads (time.Now, time.Since, timers), math/rand (only the
// seeded splitmix streams in internal/gen are legitimate randomness),
// environment reads (os.Getenv and friends), and writes to package-level
// variables outside init (global mutable state makes results depend on
// call history; the recycling sync.Pools are exempt — pooling is
// observability-neutral by construction, pinned by the recycle tests).
var NonDeterm = &Analyzer{
	Name:     "nondeterm",
	Doc:      "forbid wall-clock, math/rand, environment reads and global mutable state in deterministic packages",
	Packages: DeterministicPackages,
	Run:      runNonDeterm,
}

// forbiddenSelectors maps import path -> member names whose use is a
// finding. An empty member list forbids the whole package.
var forbiddenSelectors = map[string]map[string]string{
	"time": {
		"Now":       "wall-clock read",
		"Since":     "wall-clock read",
		"Until":     "wall-clock read",
		"Sleep":     "wall-clock wait",
		"After":     "wall-clock timer",
		"Tick":      "wall-clock timer",
		"NewTimer":  "wall-clock timer",
		"NewTicker": "wall-clock timer",
	},
	"os": {
		"Getenv":    "environment read",
		"LookupEnv": "environment read",
		"Environ":   "environment read",
	},
}

// forbiddenImports are packages that must not be imported at all.
var forbiddenImports = map[string]string{
	"math/rand":    "unseeded/global randomness; use the package's splitmix streams",
	"math/rand/v2": "unseeded/global randomness; use the package's splitmix streams",
}

// obsReadMethods are the internal/obs accessors that surface accumulated
// observability state. Bumping an instrument (Inc, Add, Set, Max, Observe)
// is allowed anywhere — the stats layer is observational by contract — but
// *reading* one inside a deterministic package would let run-to-run-varying
// state (pool high-water marks, latency histograms) leak into schedules or
// fingerprints, so reads are findings there.
var obsReadMethods = map[string]bool{
	"Value":    true,
	"Count":    true,
	"Sum":      true,
	"Snapshot": true,
	"Map":      true,
	"Format":   true,
}

func runNonDeterm(pass *Pass) {
	for _, file := range pass.Files {
		// Import graph: forbidden packages, and the local names of
		// restricted packages so renamed imports are still caught.
		restricted := map[string]string{} // local name -> import path
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := forbiddenImports[path]; ok {
				pass.Reportf(imp.Pos(), "import of %s: %s", path, why)
			}
			if _, ok := forbiddenSelectors[path]; ok {
				name := pathBase(path)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				restricted[name] = path
			}
		}

		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if obsReadMethods[sel.Sel.Name] && isObsReceiver(pass, sel) {
				pass.Reportf(sel.Pos(),
					"%s.%s: reading observability state in a deterministic package (obs instruments are write-only here)",
					exprString(sel.X), sel.Sel.Name)
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			path, ok := restricted[id.Name]
			if !ok {
				return true
			}
			// Only package-qualified references count: a local variable
			// shadowing the import name resolves to a *types.Var, not a
			// *types.PkgName.
			if obj, ok := pass.Info.Uses[id]; ok {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					return true
				}
			}
			if why, ok := forbiddenSelectors[path][sel.Sel.Name]; ok {
				pass.Reportf(sel.Pos(), "%s.%s: %s in a deterministic package", id.Name, sel.Sel.Name, why)
			}
			return true
		})
	}

	checkGlobalWrites(pass)
}

// isObsReceiver reports whether sel is a method selection whose receiver is
// a type of internal/obs. Module-local imports type-check from source, so
// the receiver's package path resolves precisely; selections that did not
// resolve (stubbed imports) are simply not obs receivers.
func isObsReceiver(pass *Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs")
}

// checkGlobalWrites flags assignments to package-level variables outside
// init functions and the declarations themselves.
func checkGlobalWrites(pass *Pass) {
	// Collect package-level var objects, minus the allowlisted kinds.
	globals := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if allowlistedGlobal(vs) {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						globals[obj] = true
					}
				}
			}
		}
	}
	if len(globals) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "init" && fd.Recv == nil {
				continue // one-time deterministic setup
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch stmt := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range stmt.Lhs {
						if obj := rootObject(pass, lhs); obj != nil && globals[obj] {
							pass.Reportf(lhs.Pos(),
								"write to package-level variable %s outside init: global mutable state breaks determinism",
								obj.Name())
						}
					}
				case *ast.IncDecStmt:
					if obj := rootObject(pass, stmt.X); obj != nil && globals[obj] {
						pass.Reportf(stmt.Pos(),
							"write to package-level variable %s outside init: global mutable state breaks determinism",
							obj.Name())
					}
				}
				return true
			})
		}
	}
}

// allowlistedGlobal reports whether a package-level var spec declares only
// interface-conformance pins or synchronization values that are
// deterministic by construction (sync.Pool recycling, sync.Once setup).
func allowlistedGlobal(vs *ast.ValueSpec) bool {
	// Blank-named conformance pins: var _ io.Writer = (*Buf)(nil).
	blankOnly := true
	for _, name := range vs.Names {
		if name.Name != "_" {
			blankOnly = false
		}
	}
	if blankOnly {
		return true
	}
	if typeIsSyncKind(vs.Type) {
		return true
	}
	if vs.Type == nil && len(vs.Values) == len(vs.Names) {
		all := true
		for _, v := range vs.Values {
			cl, ok := v.(*ast.CompositeLit)
			if !ok || !typeIsSyncKind(cl.Type) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// typeIsSyncKind matches the sync.Pool / sync.Once / sync.Mutex /
// sync.RWMutex type expressions syntactically (the sync package is stubbed
// during type checking, so this cannot rely on resolved types).
func typeIsSyncKind(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != "sync" {
		return false
	}
	switch sel.Sel.Name {
	case "Pool", "Once", "Mutex", "RWMutex":
		return true
	}
	return false
}

// rootObject resolves the base identifier of an lvalue chain (x, x.f,
// x.f[i].g ...) to its object, or nil.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.Info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprString renders a short expression (identifier chains) for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	default:
		return "?"
	}
}

// underlyingMap returns the map type of t, or nil.
func underlyingMap(t types.Type) *types.Map {
	if t == nil {
		return nil
	}
	m, _ := t.Underlying().(*types.Map)
	return m
}

// isFloat reports whether t's underlying basic kind carries float
// information.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isString reports whether t's underlying type is a string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
