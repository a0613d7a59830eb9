package engine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/term"
	"coral/internal/workload"
)

// TestSeedStatsModuleCall checks the seeder resolves a module export to
// the callee's static estimate — the exact-passthrough path: ok/1 copies
// special/1, whose live count is known.
func TestSeedStatsModuleCall(t *testing.T) {
	src := `
special(1). special(2). special(3).
module tiny.
export ok(f).
ok(X) :- special(X).
end_module.
`
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	st, ok := sys.exportStaticStats(ast.PredKey{Name: "ok", Arity: 1}, 0, nil)
	if !ok {
		t.Fatal("no static estimate for the export")
	}
	if st.Rows != 3 {
		t.Errorf("export estimate rows = %d, want 3 (exact passthrough of special/1)", st.Rows)
	}
}

// TestIterBoundSound proves the soundness contract behind the budget hint:
// a completed evaluation's actual iteration count never exceeds the static
// round bound the hint reports.
func TestIterBoundSound(t *testing.T) {
	src := workload.RandomGraph(10, 25, 9) + workload.TCModule("")
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys := NewSystem()
	for _, f := range u.Facts {
		rel, err := sys.BaseRelation(f.Pred, len(f.Args))
		if err != nil {
			t.Fatal(err)
		}
		rel.Insert(relation.NewFact(f.Args, nil))
	}
	if err := sys.AddModule(u.Modules[0]); err != nil {
		t.Fatalf("add module: %v", err)
	}
	prog, err := BuildProgram(u.Modules[0], ast.PredKey{Name: "tc", Arity: 2}, "ff")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	me := newMatEval(prog, liveExternal(sys))
	def, _ := sys.Module(u.Modules[0].Name)
	def.configureEval(me, &callCfg{v: sys.writerView()}, prog)
	me.addSeed([]term.Term{term.NewVar("A"), term.NewVar("B")}, nil)
	bound := me.seed.iterBound()
	if math.IsInf(bound, 1) {
		t.Fatal("expected a finite static round bound for transitive closure over a known base")
	}
	me.run()
	if me.err != nil {
		t.Fatalf("run: %v", me.err)
	}
	if float64(me.Iterations) > bound {
		t.Errorf("evaluation ran %d iterations, static bound promised ≤ %.0f", me.Iterations, bound)
	}
}

// TestBudgetHintStaticBound checks that an iteration-budget abort carries
// the static round bound when the analysis proved one.
func TestBudgetHintStaticBound(t *testing.T) {
	sys, err := LoadSystem(workload.Chain(30) + workload.TCModule(""))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	sys.Budget = Budget{MaxIterations: 2}
	_, err = askErr(sys, "tc(A, B)")
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Tripped != AbortIterations {
		t.Fatalf("err = %v, want iterations abort", err)
	}
	if !strings.Contains(err.Error(), "statically expected ≤") {
		t.Errorf("abort message lacks the static round bound: %v", err)
	}
}
