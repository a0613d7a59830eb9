package main

import (
	"go/ast"

	"coral/tools/lint/analysis"
)

// budgetpollAnalyzer enforces scan-loop-polls-budget inside the engine
// package: a for loop that drains an iterator with .Next() can touch a
// tuple per step for the whole cross product, so unless it performs an
// amortized budget poll (poll / pollBudget, the budgetGuard entry points)
// a runaway query ignores its deadline and fact/iteration budget until
// the next round barrier. Loops over provably bounded state — an
// already-materialized answer relation, a single stored relation — carry
// a "lint:allow scanloop — <reason>" annotation on or immediately above
// the for statement.
//
// Only the engine package is checked: budgetGuard is engine-internal,
// and iterators elsewhere (relation scans in tests, tooling) have no
// budget to poll.
var budgetpollAnalyzer = &analysis.Analyzer{
	Name: "budgetpoll",
	Doc: `require an amortized budget poll in engine iterator-scan loops

A for loop calling .Next() in package engine must also call poll or
pollBudget (the amortized budgetGuard checks) somewhere in its body, or
be annotated "lint:allow scanloop — <reason>" when the scanned state is
provably bounded (materialized answers, one stored relation).`,
	Run: runBudgetpoll,
}

// pollNames are the method names accepted as an amortized budget check.
var pollNames = map[string]bool{"poll": true, "pollBudget": true}

func runBudgetpoll(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg != "engine" {
		return nil, nil
	}
	for _, file := range pass.Files {
		allowed := allowedLines(pass.Fset, file, "lint:allow scanloop")
		// Innermost enclosing loop per .Next() call: walk with an explicit
		// ancestor stack (Inspect reports post-order as nil).
		flagged := map[*ast.ForStmt]bool{}
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Next" {
				return true
			}
			if loop := innermostLoop(stack[:len(stack)-1]); loop != nil {
				flagged[loop] = true
			}
			return true
		})
		for loop := range flagged {
			if loopPolls(loop) || allowed[pass.Fset.Position(loop.For).Line] {
				continue
			}
			pass.Reportf(loop.For, "iterator scan loop without an amortized budget poll: call pollBudget/poll in the loop, or annotate a bounded scan with \"lint:allow scanloop — <reason>\"")
		}
	}
	return nil, nil
}

// innermostLoop scans the ancestor stack for the nearest enclosing for
// statement, stopping at a function literal boundary: a .Next() inside a
// closure is driven by whoever calls the closure, not by the loop that
// happens to lexically surround its definition.
func innermostLoop(ancestors []ast.Node) *ast.ForStmt {
	for i := len(ancestors) - 1; i >= 0; i-- {
		switch a := ancestors[i].(type) {
		case *ast.ForStmt:
			return a
		case *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// loopPolls reports whether the loop body contains a call to one of the
// budgetGuard poll entry points (again respecting closure boundaries).
func loopPolls(loop *ast.ForStmt) bool {
	polls := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if polls {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			polls = polls || pollNames[fun.Name]
		case *ast.SelectorExpr:
			polls = polls || pollNames[fun.Sel.Name]
		}
		return true
	})
	return polls
}
