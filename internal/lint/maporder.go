package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map whose body is order-sensitive: it
// appends to a slice declared outside the loop, writes output (a
// *trace.Trace, io.Writer, string builder or fmt call), assigns a
// loop-variable-derived value to an outer variable (last-writer-wins
// selection), or folds floats/strings into an outer accumulator. Integer
// tallies (count++, sum += n) are exact and commutative, so they are
// allowed — the same reasoning that makes metrics.Partial mergeable.
//
// The idiomatic fix is to collect the keys, sort them, and range over the
// sorted slice; a collect-keys append is therefore exempt when the
// enclosing function visibly sorts the collected slice afterwards.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive folds over map iteration (append, output writes, non-commutative accumulation)",
	Run:  runMapOrder,
}

// writeishNames are call names that emit output in call order.
var writeishNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	// *trace.Trace recording methods: segment and event appends are
	// recorded in call order and feed fingerprints.
	"Run": true, "RunOn": true, "Mark": true, "DeclareEntity": true,
	"Event": true, "Segment": true,
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Files {
		// Funcs in source order so the sorted-keys exemption can look at
		// statements following the range within the same function.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if underlyingMap(pass.Info.Types[rs.X].Type) == nil {
					return true
				}
				checkMapRange(pass, fd, rs)
				return true
			})
		}
	}
}

// checkMapRange audits one map-range statement's body.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				loopVars[obj] = true // k, v := declared outside (rare "=" range)
			}
		}
	}
	mapName := exprString(rs.X)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, fd, rs, stmt, loopVars, mapName)
		case *ast.CallExpr:
			if name, ok := callName(stmt); ok && writeishNames[name] {
				pass.Reportf(stmt.Pos(),
					"%s inside range over map %s: output written in map iteration order; sort the keys first",
					name, mapName)
			}
		case *ast.ReturnStmt:
			for _, res := range stmt.Results {
				if mentionsAny(pass, res, loopVars) {
					pass.Reportf(stmt.Pos(),
						"return of a loop variable inside range over map %s selects an arbitrary entry; sort the keys first",
						mapName)
					break
				}
			}
		}
		return true
	})
}

// checkMapRangeAssign audits one assignment inside a map-range body.
func checkMapRangeAssign(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, stmt *ast.AssignStmt, loopVars map[types.Object]bool, mapName string) {
	for i, lhs := range stmt.Lhs {
		obj := rootObject(pass, lhs)
		if obj == nil || loopVars[obj] || !declaredOutside(pass, obj, rs) {
			continue
		}
		var rhs ast.Expr
		if i < len(stmt.Rhs) {
			rhs = stmt.Rhs[i]
		} else if len(stmt.Rhs) == 1 {
			rhs = stmt.Rhs[0]
		}

		// append to an outer slice accumulates in iteration order.
		if call, ok := rhs.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltin(pass, id) {
				if sortedAfter(pass, fd, rs, obj) {
					continue // collect-keys-then-sort idiom
				}
				pass.Reportf(stmt.Pos(),
					"append to %s inside range over map %s accumulates in map iteration order; sort the keys first",
					obj.Name(), mapName)
				continue
			}
		}

		switch stmt.Tok {
		case token.ASSIGN, token.DEFINE:
			// Plain overwrite of an outer variable with a loop-derived
			// value: last writer wins, and the last iteration is arbitrary.
			if rhs != nil && mentionsAny(pass, rhs, loopVars) {
				pass.Reportf(stmt.Pos(),
					"assignment to %s inside range over map %s depends on map iteration order (last writer wins); sort the keys first",
					obj.Name(), mapName)
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			// Float and string folds are order-sensitive; integer tallies
			// are commutative and exact.
			t := pass.Info.Types[lhs].Type
			if isFloat(t) {
				pass.Reportf(stmt.Pos(),
					"float accumulation into %s inside range over map %s is order-sensitive (float addition does not commute exactly); sort the keys first",
					obj.Name(), mapName)
			} else if isString(t) && stmt.Tok == token.ADD_ASSIGN {
				pass.Reportf(stmt.Pos(),
					"string concatenation into %s inside range over map %s emits in map iteration order; sort the keys first",
					obj.Name(), mapName)
			}
		}
	}
}

// declaredOutside reports whether obj's declaration lies outside the range
// statement.
func declaredOutside(pass *Pass, obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() == token.NoPos || obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// mentionsAny reports whether the expression references any of the given
// objects.
func mentionsAny(pass *Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isBuiltin reports whether the identifier resolves to a builtin (or is
// unresolved, which for "append" only happens for the builtin).
func isBuiltin(pass *Pass, id *ast.Ident) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// callName extracts the called name from a call expression: the selector
// member for method/package calls, the identifier for plain calls.
func callName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	case *ast.Ident:
		return fun.Name, true
	}
	return "", false
}

// sortedAfter reports whether the function sorts the accumulated slice
// after the range statement: a call mentioning both a sort-ish name and
// the slice variable, positioned after the loop.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, slice types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		name, ok := callName(call)
		if !ok || !sortishName(name) {
			return true
		}
		for _, arg := range call.Args {
			if obj := rootObject(pass, arg); obj == slice {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortishName matches sort.Strings / sort.Slice / slices.Sort and the
// local sortFloats-style helpers.
func sortishName(name string) bool {
	switch name {
	case "Sort", "Strings", "Ints", "Float64s", "Slice", "SliceStable", "SortFunc", "SortStableFunc":
		return true
	}
	return len(name) > 4 && name[:4] == "sort"
}
