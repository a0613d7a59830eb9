package coral

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"coral/internal/workload"
)

// FuzzEval consults arbitrary program text on a System running under a
// tight Budget, once with sequential fixpoint rounds and once with four
// workers. The contract under fuzz: evaluation either completes or aborts
// with a typed error — it never panics and never hangs, whatever the
// program does (unbounded recursion, negation, aggregate selections,
// arithmetic on garbage) — and when both settings complete cleanly their
// answers must agree byte for byte, in order. Rounds this small run inline
// on the caller whatever the worker budget (the chunk size is not settable
// from here), so what this target holds is panic and abort parity; the
// stream check across real pool rounds is internal/engine's
// FuzzParallelStream, over the same seeds (workload.EvalFuzzSeeds). (The
// register machine is held to the interpreter by the reference-evaluator
// suite in internal/engine, which carries the bytecode seeds as fixed
// programs.) The budget is
// what turns "never hangs" into a testable property: an infinite fixpoint
// must trip MaxFacts, MaxIterations or the deadline.
func FuzzEval(f *testing.F) {
	for _, s := range workload.EvalFuzzSeeds {
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
