package main

import (
	"go/ast"
	"go/types"

	"coral/tools/lint/analysis"
)

// roviolAnalyzer enforces the snapshot read-only discipline (DESIGN.md
// §5.16/§5.17): a relation.Prefix is an immutable historical view, and the
// *HashRelation a Prefix unwraps to (Rel(), the sharedRO access path for
// planner statistics and index-cursor scans) is writable Go-wise but must
// never be written — a mutation through it would tear every session
// pinned to the snapshot.
//
// The check is a package-local taint analysis over the type-checked
// syntax. Taint sources: any expression of type *relation.Prefix, any
// Rel() call on one, and any call to a same-package function whose own
// body returns a tainted value (one summary level, iterated to a
// fixpoint, which is what catches engine's hashRelOf-style unwrap
// helpers). Taint propagates through assignments to local identifiers.
// Violations: a tainted value as the receiver of a mutating relation
// method (Insert, Delete, TruncateTo, MakeIndex, MakePatternIndex, Clear,
// AddAggSel), and a tainted unwrapped relation (not the Prefix itself —
// handing read-only views around is the point) stored into a struct field
// or map/slice element, where it would outlive the function and become a
// writable alias to snapshot-backed state. "lint:allow roviol — <reason>"
// suppresses a finding whose safety rests on an invariant the analyzer
// cannot see.
//
// The relation package itself is exempt: it implements the Prefix type,
// so its internals necessarily touch the underlying relation.
var roviolAnalyzer = &analysis.Analyzer{
	Name: "roviol",
	Doc: `forbid snapshot-backed relations from reaching mutating methods

Values of type *relation.Prefix, and *HashRelation values unwrapped from
one (Rel(), directly or through a local helper), must not receive
mutating relation methods or be stored into writable fields. Annotate
dynamically guarded sites with "lint:allow roviol — <reason>".`,
	Run: runRoviol,
}

// roviolMutators are the relation methods that mutate a HashRelation.
var roviolMutators = map[string]bool{
	"Insert": true, "Delete": true, "TruncateTo": true,
	"MakeIndex": true, "MakePatternIndex": true, "Clear": true,
	"AddAggSel": true,
}

func runRoviol(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg == "relation" {
		return nil, nil
	}
	taintedFuncs := taintReturningFuncs(pass)
	for _, file := range pass.Files {
		allowed := allowedLines(pass.Fset, file, "lint:allow roviol")
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			rt := newRoviolTracker(pass, taintedFuncs)
			rt.taintLocals(fn.Body)
			rt.check(fn.Body, allowed)
		}
	}
	return nil, nil
}

// roviolTracker carries one function's taint state.
type roviolTracker struct {
	pass    *analysis.Pass
	funcs   map[types.Object]bool // same-package functions returning taint
	tainted map[string]bool       // local identifiers holding tainted values
}

func newRoviolTracker(pass *analysis.Pass, funcs map[types.Object]bool) *roviolTracker {
	return &roviolTracker{pass: pass, funcs: funcs, tainted: map[string]bool{}}
}

// taintReturningFuncs computes, to a fixpoint, the package's functions
// whose return statements yield a tainted value — the one summary level
// that lets a caller see through local unwrap helpers like hashRelOf.
func taintReturningFuncs(pass *analysis.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj := pass.TypesInfo.Defs[fn.Name]
				if obj == nil || out[obj] {
					continue
				}
				rt := newRoviolTracker(pass, out)
				rt.taintLocals(fn.Body)
				if rt.returnsTaint(fn.Body) {
					out[obj] = true
					changed = true
				}
			}
		}
	}
	return out
}

// taintLocals propagates taint through the function's assignments to a
// fixpoint: x := <tainted>, x = <tainted>.
func (rt *roviolTracker) taintLocals(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" || rt.tainted[id.Name] {
					continue
				}
				var rhs ast.Expr
				if len(as.Lhs) == len(as.Rhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0] // multi-value: taint every name conservatively
				}
				if rhs != nil && rt.taintedExpr(rhs) {
					rt.tainted[id.Name] = true
					changed = true
				}
			}
			return true
		})
	}
}

// taintedExpr reports whether an expression yields a snapshot-backed
// value: a Prefix by type, an unwrap of one, a tainted local, or a call
// to a taint-returning same-package function.
func (rt *roviolTracker) taintedExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		if rt.tainted[x.Name] {
			return true
		}
	case *ast.ParenExpr:
		return rt.taintedExpr(x.X)
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			// X.Rel() on a Prefix (by type or by taint) unwraps the
			// writable relation underneath the read-only view.
			if sel.Sel.Name == "Rel" && (rt.isPrefixExpr(sel.X) || rt.taintedExpr(sel.X)) {
				return true
			}
		}
		if id, ok := x.Fun.(*ast.Ident); ok {
			if obj := rt.pass.TypesInfo.Uses[id]; obj != nil && rt.funcs[obj] {
				return true
			}
		}
	case *ast.TypeAssertExpr:
		// hr := x.(*relation.HashRelation) on a tainted interface value
		// stays tainted: the dynamic value is still snapshot-backed.
		return rt.taintedExpr(x.X)
	}
	return rt.isPrefixExpr(e)
}

// isPrefixExpr reports whether the expression's static type is
// relation.Prefix or *relation.Prefix.
func (rt *roviolTracker) isPrefixExpr(e ast.Expr) bool {
	tv, ok := rt.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isPrefixType(tv.Type)
}

func isPrefixType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Prefix" && obj.Pkg() != nil &&
		obj.Pkg().Path() == "coral/internal/relation"
}

// returnsTaint reports whether any return statement yields a tainted
// value (closure bodies included: a closure returning taint is close
// enough to the function doing so for a conservative summary).
func (rt *roviolTracker) returnsTaint(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, e := range ret.Results {
			// Returning the Prefix itself is fine (it stays read-only);
			// returning the unwrapped relation is what launders taint.
			if rt.taintedExpr(e) && !rt.isPrefixExpr(e) {
				found = true
			}
		}
		return true
	})
	return found
}

// check walks the function body and reports the two violation shapes.
func (rt *roviolTracker) check(body *ast.BlockStmt, allowed map[int]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || !roviolMutators[sel.Sel.Name] {
				return true
			}
			if rt.taintedExpr(sel.X) {
				if !allowed[rt.pass.Fset.Position(x.Pos()).Line] {
					rt.pass.Reportf(x.Pos(), "%s on a snapshot-backed relation (reached through relation.Prefix): mutating it would tear every session pinned to the snapshot",
						sel.Sel.Name)
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
				default:
					continue
				}
				rhs := x.Rhs[i]
				if rt.taintedExpr(rhs) && !rt.isPrefixExpr(rhs) {
					if !allowed[rt.pass.Fset.Position(rhs.Pos()).Line] {
						rt.pass.Reportf(rhs.Pos(), "snapshot-backed relation (unwrapped from relation.Prefix) stored into a writable location: the alias outlives the read-only discipline")
					}
				}
			}
		}
		return true
	})
}
