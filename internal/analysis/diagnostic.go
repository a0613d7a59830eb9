// Package analysis implements CORAL's compile-time program analysis as a
// first-class pass over parsed programs (paper §2, §4: programs are
// analyzed and rewritten before evaluation; adornment, magic rewriting and
// stratification all depend on static properties of the rule set). The
// pass produces structured diagnostics instead of ad-hoc errors: bad
// programs fail fast with precise positions and actionable suggestions
// rather than evaluating to wrong answers or failing to terminate.
package analysis

import (
	"sort"
	"strings"
)

// Severity classifies a diagnostic.
type Severity uint8

// Severities, in increasing order of gravity.
const (
	// Info notes something worth knowing that needs no action.
	Info Severity = iota
	// Warning marks a construct that evaluates but is probably not what
	// the author meant (typo, dead rule, silent non-termination risk).
	Warning
	// Error marks a program the engine cannot evaluate correctly.
	Error
)

// String renders the severity for diagnostics output.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return "info"
}

// Check identifiers, one per analysis in the catalogue. These are stable
// IDs: tools may filter on them.
const (
	// CheckRangeRestriction: a rule head variable is not bound by any
	// positive body literal. Legal in CORAL — derived facts are then
	// non-ground (paper §3.1), which is why this is a warning — but it
	// is usually a typo. Facts (empty bodies) are exempt: non-ground
	// facts are the idiomatic way to state universally quantified data.
	CheckRangeRestriction = "range-restriction"
	// CheckUnsafeNegation: a variable occurs under "not" without a
	// positive binding occurrence.
	CheckUnsafeNegation = "unsafe-negation"
	// CheckUnsafeAggregation: an aggregated head argument is not bound
	// by the rule body.
	CheckUnsafeAggregation = "unsafe-aggregation"
	// CheckBuiltinBinding: a builtin is reached with operands that
	// cannot be bound under the left-to-right information passing
	// strategy (e.g. X = Y+1 with both unbound, or a comparison on a
	// variable no body literal produces).
	CheckBuiltinBinding = "builtin-binding"
	// CheckUndefinedPred: a body literal references a predicate no rule,
	// fact, export, or registered relation defines; it evaluates as an
	// empty relation.
	CheckUndefinedPred = "undefined-pred"
	// CheckExportUndefined: a module exports a predicate it defines no
	// rules for.
	CheckExportUndefined = "export-undefined"
	// CheckUnusedPred: a predicate is defined by rules but neither
	// exported nor used in any rule body of its module.
	CheckUnusedPred = "unused-pred"
	// CheckArityMismatch: one predicate name is used with different
	// arities (distinct predicates to the engine, usually a typo).
	CheckArityMismatch = "arity-mismatch"
	// CheckSingletonVar: a named variable occurs exactly once in a rule.
	CheckSingletonVar = "singleton-var"
	// CheckDuplicateRule: two textually identical rules in one module.
	CheckDuplicateRule = "duplicate-rule"
	// CheckFunctorGrowth: a recursive rule wraps a recursion variable in
	// a larger term in its head; bottom-up iteration builds ever-larger
	// terms and may not terminate.
	CheckFunctorGrowth = "functor-growth"
	// CheckUnstratified: negation or aggregation stays inside one
	// recursive component and the module does not use @ordered_search.
	CheckUnstratified = "unstratified"
	// CheckCrossProduct: a positive body literal shares no variables with
	// the literals before it, so the written order joins a full cross
	// product. The runtime join planner reorders it away, but the written
	// order is what tracing and Ordered Search evaluate.
	CheckCrossProduct = "cross-product"
	// CheckUnreachableRule (interprocedural, analysis/flow): a predicate is
	// defined and referenced, but no exported query form reaches it — its
	// rules are dead code the optimizer will prune. Complements unused-pred,
	// which only sees predicates referenced nowhere (a dead mutual-recursion
	// cycle references all of its members).
	CheckUnreachableRule = "unreachable-rule"
	// CheckUnsatisfiableCall (interprocedural): a call site's inferred
	// argument types cannot overlap anything the callee's rules can store,
	// so the call never succeeds and the rule never fires.
	CheckUnsatisfiableCall = "unsatisfiable-call"
	// CheckFlowNegation (interprocedural): a negated or aggregated argument
	// may be unbound at evaluation time under some reachable query form —
	// the binding flows through the call graph, so the per-rule safety
	// checks cannot see it (e.g. the variable is bound by a literal whose
	// facts may themselves be non-ground, paper §3.1).
	CheckFlowNegation = "flow-unsafe-negation"
	// CheckNongroundStored (interprocedural): a predicate stores a possibly
	// non-ground argument, yet every reachable call supplies a ground value
	// there — the universal quantification is dead generality (usually an
	// unbound head variable that was meant to be bound).
	CheckNongroundStored = "nonground-stored"
	// CheckPossibleNontermination (analysis/card): a recursive rule
	// constructs ever-larger terms through a body equation (X = f(Y) with Y
	// recursive), and some reachable query form cannot demand-bound the
	// recursion — the fixpoint may be infinite. The head-level form
	// (p(f(X)) :- p(X)) is reported by functor-growth instead.
	CheckPossibleNontermination = "possible-nontermination"
	// CheckArithRecursion (analysis/card): a recursive rule computes new
	// values arithmetically from its own stored values (X = Y + 1) with no
	// comparison guard bounding them — counting recursion that never
	// closes.
	CheckArithRecursion = "unbounded-arithmetic-recursion"
	// CheckSubsumedRule: a rule is θ-subsumed by a more general rule of the
	// same predicate — every fact it derives, the general rule derives too,
	// so it only costs evaluation time.
	CheckSubsumedRule = "subsumed-rule"
	// CheckInsufficientBudget (analysis/card): a configured iteration
	// budget is smaller than what the static analysis expects the fixpoint
	// to need, so -max-iters would trip on a correct program.
	CheckInsufficientBudget = "insufficient-iter-budget"
)

// Diagnostic is one finding of the analysis pass.
type Diagnostic struct {
	Sev   Severity
	Check string // stable check ID, e.g. "range-restriction"
	// Module names the enclosing module, "" for unit-level findings.
	Module string
	// Line and Col locate the finding in the consulted source (1-based;
	// 0 when no position applies).
	Line int
	Col  int
	// Message states the finding.
	Message string
	// Suggestion, when non-empty, says how to fix or silence it.
	Suggestion string
}

// String renders the diagnostic on one line:
//
//	5:12: error [unsafe-negation]: variable Y occurs only under "not" (bind Y in a positive body literal)
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Line > 0 {
		b.WriteString(itoa(d.Line))
		b.WriteByte(':')
		b.WriteString(itoa(d.Col))
		b.WriteString(": ")
	}
	b.WriteString(d.Sev.String())
	b.WriteString(" [")
	b.WriteString(d.Check)
	b.WriteString("]: ")
	b.WriteString(d.Message)
	if d.Suggestion != "" {
		b.WriteString(" (")
		b.WriteString(d.Suggestion)
		b.WriteByte(')')
	}
	return b.String()
}

// Render joins diagnostics one per line.
func Render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// HasErrors reports whether any diagnostic is Error severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Sev == Error {
			return true
		}
	}
	return false
}

// Errors returns only the Error-severity diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Sev == Error {
			out = append(out, d)
		}
	}
	return out
}

// sortDiags orders diagnostics deterministically by (line, col, check ID),
// then severity and message as tie-breakers — the contract CI diffs and
// -Werror runs rely on: two runs over the same source always print the
// same sequence, regardless of which check emitted first.
func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		return a.Message < b.Message
	})
}

func itoa(n int) string {
	if n <= 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
