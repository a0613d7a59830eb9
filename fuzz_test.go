package coral

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzEval consults arbitrary program text on a System running under a
// tight Budget, once with sequential fixpoint rounds and once with four
// workers. The contract under fuzz: evaluation either completes or aborts
// with a typed error — it never panics and never hangs, whatever the
// program does (unbounded recursion, negation, aggregate selections,
// arithmetic on garbage) — and when both settings complete cleanly their
// answers must agree byte for byte, in order: the parallel round replays
// the sequential emission order exactly. (The register machine is held to
// the interpreter by the reference-evaluator suite in internal/engine,
// which carries the bytecode seeds below as fixed programs.) The budget is
// what turns "never hangs" into a testable property: an infinite fixpoint
// must trip MaxFacts, MaxIterations or the deadline.
func FuzzEval(f *testing.F) {
	seeds := []string{
		// Unbounded arithmetic recursion: must trip the budget.
		"module inf.\nexport num(f).\nnum(0).\nnum(X) :- num(Y), X = Y + 1.\nend_module.\n?- num(X).",
		// Terminating transitive closure with an inline query.
		"edge(a, b). edge(b, c). edge(c, a).\nmodule m.\nexport tc(ff).\ntc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\nend_module.\n?- tc(a, X).",
		// Stratified negation under Ordered Search.
		"move(a, b). move(b, c).\nmodule g.\nexport win(b).\n@ordered_search.\nwin(X) :- move(X, Y), not win(Y).\nend_module.\n?- win(a).",
		// Aggregate selection (shortest paths) with a cycle.
		"edge(a, b, 1). edge(b, c, 2). edge(c, a, 3).\nmodule sp.\nexport p(bfff).\n@aggregate_selection p(X, Y, P, C) (X, Y) min(C).\np(X, Y, [e(X, Y)], C) :- edge(X, Y, C).\np(X, Y, [e(Z, Y)|P], C1) :- p(X, Z, P, C), edge(Z, Y, EC), C1 = C + EC.\nend_module.\n?- p(a, Y, P, C).",
		// Pipelined evaluation.
		"e(1, 2). e(2, 3).\nmodule p.\nexport q(ff).\n@pipelining.\nq(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Z), q(Z, Y).\nend_module.\n?- q(1, X).",
		// Head aggregation and set grouping.
		"s(a, 1). s(a, 2). s(b, 3).\nmodule a.\nexport t(ff).\nt(X, sum(Y)) :- s(X, Y).\nend_module.\n?- t(X, S).",
		// Runtime type error paths.
		"v(a, x).\nmodule m.\nexport b(ff).\nb(X, Y) :- v(X, V), Y < V + 1.\nend_module.\n?- b(X, Y).",
		// Bytecode fragment boundaries: repeated variables (store vs.
		// compare), functor descent, and a structural "=" the compiler
		// must hand back to the interpreter.
		"e(f(a), f(a)). e(f(a), g(b)).\nmodule s.\nexport q(f).\nq(X) :- e(W, W), W = f(X).\nend_module.\n?- q(X).",
		// Negation with a partially built pattern argument.
		"n(a). n(b). e(a, b).\nmodule ng.\nexport r(f).\nr(X) :- n(X), not e(X, X).\nend_module.\n?- r(X).",
		// Integer overflow promotion inside the unboxed fast path.
		"big(4611686018427387904).\nmodule o.\nexport d(f).\nd(X) :- big(B), X = B * 3.\nend_module.\n?- d(X).",
		// Division by zero thrown from compiled arithmetic.
		"z(0).\nmodule dz.\nexport w(f).\nw(X) :- z(Z), X = 1 / Z.\nend_module.\n?- w(X).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var rendered [2]string
		var failed [2]bool
		for i, par := range []int{1, 4} {
			sys := New()
			sys.SetParallelism(par)
			sys.SetBudget(Budget{
				Timeout:       200 * time.Millisecond,
				MaxFacts:      5000,
				MaxIterations: 500,
			})
			start := time.Now()
			results, err := sys.Consult(src)
			if el := time.Since(start); el > 5*time.Second {
				t.Fatalf("parallelism=%d: consult ran %v under a 200ms budget", par, el)
			}
			if err != nil {
				var ab *AbortError
				if errors.As(err, &ab) && ab.Tripped == "" {
					t.Fatalf("parallelism=%d: abort without a tripped reason: %v", par, err)
				}
				// Budget trips depend on wall clock; error parity between
				// the settings is only checked for clean runs.
				failed[i] = true
				continue
			}
			rendered[i] = renderAnswerSets(results)
			// A clean consult leaves a usable system: follow-up query on a
			// trivial base relation must not be poisoned by prior evaluation.
			if _, err := sys.Consult("zfuzz(ok).\n?- zfuzz(X)."); err != nil {
				t.Fatalf("parallelism=%d: follow-up consult failed: %v", par, err)
			}
		}
		if !failed[0] && !failed[1] && rendered[0] != rendered[1] {
			t.Fatalf("parallelism changed the answers\n1:\n%s\n4:\n%s", rendered[0], rendered[1])
		}
	})
}

// renderAnswerSets flattens every query's answers — column names, tuples,
// and their order — into one string for the cross-check.
func renderAnswerSets(results []*Answers) string {
	var b strings.Builder
	for _, ans := range results {
		fmt.Fprintf(&b, "?- %s | %v\n", ans.Query, ans.Vars)
		for _, tup := range ans.Tuples {
			fmt.Fprintf(&b, "%v\n", tup)
		}
	}
	return b.String()
}
