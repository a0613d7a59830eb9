package main

import (
	"fmt"
	"io"

	"coral"
	"coral/internal/analysis"
	"coral/internal/engine"
	"coral/internal/parser"
)

// runVet analyzes one program source and writes diagnostics to w, one per
// line, prefixed with the file name. It returns the exit code: 0 when the
// program is clean enough (no errors; no warnings either under -Werror),
// 1 when diagnostics demand failure, 2 on a parse error.
func runVet(name, src string, werror bool, w io.Writer) int {
	u, err := parser.Parse(src)
	if err != nil {
		fmt.Fprintf(w, "%s: %v\n", name, err)
		return 2
	}
	diags := analysis.AnalyzeUnit(u, analysis.Options{Src: src})
	for _, d := range diags {
		fmt.Fprintf(w, "%s:%s\n", name, d)
	}
	if analysis.HasErrors(diags) {
		return 1
	}
	if werror && len(diags) > 0 {
		return 1
	}
	return 0
}

// runDisasm prints the register bytecode every rule body of one program
// source compiles to, per module and exported query form — the adorned,
// rewritten rules the evaluator would actually run, in the specialized
// form described in DESIGN.md §5.15. Rules outside the compiled fragment
// print the reason they stay on the interpreter. It returns the exit code
// (2 on a parse or rewrite error).
func runDisasm(name, src string, w io.Writer) int {
	out, err := engine.DisasmSource(src)
	if err != nil {
		fmt.Fprintf(w, "%s: %v\n", name, err)
		return 2
	}
	fmt.Fprint(w, out)
	return 0
}

// runAnalyze prints the raw static-analysis reports for every module of
// one program source (coral.System.Analyze): the flow analysis (per derived
// predicate, the reachable (predicate, adornment) contexts with inferred
// call bindings, fact groundness, and type/shape summaries) followed by the
// cardinality & termination analysis (row and domain bounds, termination
// verdicts, the static fixpoint round bound). It returns the exit code (2 on
// a parse error).
func runAnalyze(name, src string, w io.Writer) int {
	out, err := coral.New().Analyze(src)
	if err != nil {
		fmt.Fprintf(w, "%s: %v\n", name, err)
		return 2
	}
	fmt.Fprint(w, out)
	return 0
}
