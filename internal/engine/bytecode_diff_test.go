package engine

import (
	"errors"
	"runtime"
	"testing"

	"coral/internal/term"
	"coral/internal/workload"
)

// TestBytecodeEngages pins that eligible rule applications actually run on
// the machine — a differential suite over a path that silently fell back to
// the interpreter would test nothing — and that the machine keeps the
// interpreter's counters.
func TestBytecodeEngages(t *testing.T) {
	src := workload.RandomGraph(12, 30, 3) + `
module m.
export tc(ff).
@rewrite none.
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	_, off, err := refCall(sys, parseGoal(t, "tc(X, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if off.BytecodeRuns != 0 {
		t.Errorf("bytecode counter non-zero on the reference evaluator: %+v", off)
	}
	_, on := measureModule(t, sys, "tc", term.NewVar("X"), term.NewVar("Y"))
	if on.BytecodeRuns == 0 {
		t.Fatalf("no rule application ran on the bytecode machine: %+v", on)
	}
	if on.Answers != off.Answers || on.Derivations != off.Derivations || on.Attempts != off.Attempts {
		t.Errorf("bytecode changed the engine counters: engine %+v, reference %+v", on, off)
	}
}

// TestBytecodeBudgetAbort aborts bytecode evaluations mid-run — via a
// countdown context and via the fact budget — and checks the abort is a
// clean *AbortError, no goroutine outlives it, and the same System
// recovers to byte-identical answers once the budget is lifted. The
// machine polls the budget per candidate tuple exactly like the
// interpreter, so the abort sweep hits it at every poll point.
func TestBytecodeBudgetAbort(t *testing.T) {
	defer func(old int) { budgetCheckEvery = old }(budgetCheckEvery)
	budgetCheckEvery = 1
	defer func(old int) { parMinChunk = old }(parMinChunk)
	parMinChunk = 4
	src := workload.RandomGraph(12, 36, 5) + `
module m.
export p(ff).
@rewrite none.
p(X, Y) :- edge(X, Y).
p(X, Y) :- p(X, Z), edge(Z, Y).
end_module.
`
	for _, par := range []int{1, 4} {
		fresh, err := LoadSystem(src)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Parallelism = par
		want, err := drainCall(fresh, "p", 2, nil)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		base := runtime.NumGoroutine()
		aborts := 0
		for k := 1; k <= 25; k += 3 {
			for _, inject := range []string{"ctx", "facts"} {
				sys, err := LoadSystem(src)
				if err != nil {
					t.Fatal(err)
				}
				sys.Parallelism = par
				switch inject {
				case "ctx":
					sys.Ctx = &countdownCtx{left: int64(k)}
				case "facts":
					sys.Budget = Budget{MaxFacts: k}
				}
				got, err := drainCall(sys, "p", 2, nil)
				if err != nil {
					var ab *AbortError
					if !errors.As(err, &ab) {
						t.Fatalf("par %d %s k=%d: abort is not *AbortError: %v", par, inject, k, err)
					}
					aborts++
				} else if !sameStrings(got, want) {
					t.Fatalf("par %d %s k=%d: uncanceled run diverged", par, inject, k)
				}
				sys.Ctx = nil
				sys.Budget = Budget{}
				rerun, err := drainCall(sys, "p", 2, nil)
				if err != nil {
					t.Fatalf("par %d %s k=%d: re-run after abort failed: %v", par, inject, k, err)
				}
				if !sameStrings(rerun, want) {
					t.Fatalf("par %d %s k=%d: re-run diverges from fresh System", par, inject, k)
				}
			}
		}
		if aborts == 0 {
			t.Fatal("sweep never tripped an abort through the bytecode path")
		}
		assertNoGoroutineLeak(t, base)
	}
}
