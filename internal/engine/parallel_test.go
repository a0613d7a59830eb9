package engine

import (
	"fmt"
	"runtime"
	"testing"

	"coral/internal/ast"
	"coral/internal/term"
	"coral/internal/workload"
)

// answersInOrder drains a call and returns the answer strings in exactly
// the order the scan produced them (ask() sorts; byte-identity between the
// sequential and parallel rounds needs the raw order).
func answersInOrder(t *testing.T, sys *System, pred string, arity int) []string {
	t.Helper()
	key := ast.PredKey{Name: pred, Arity: arity}
	def, ok := sys.Export(key)
	if !ok {
		t.Fatalf("no module exports %s", key)
	}
	args := make([]term.Term, arity)
	for i := range args {
		args[i] = term.NewVar(fmt.Sprintf("A%d", i))
	}
	it, err := def.Call(key, args, nil)
	if err != nil {
		t.Fatalf("call %s: %v", key, err)
	}
	var out []string
	for {
		f, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, f.String())
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelMatchesSequentialByteForByte pins the tentpole's central
// guarantee: the parallel round's deterministic merge replays the exact
// sequential insertion order, so the answer stream — not just the answer
// set — is identical.
func TestParallelMatchesSequentialByteForByte(t *testing.T) {
	programs := []struct {
		name  string
		src   string
		pred  string
		arity int
	}{
		{"tc-none", workload.RandomGraph(16, 48, 7) + workload.TCModule("@rewrite none."), "tc", 2},
		{"tc-supmagic", workload.RandomGraph(16, 48, 7) + workload.TCModule(""), "tc", 2},
		{"mutual", workload.RandomGraph(12, 36, 3) + workload.MutualRecursion(3, ""), "p0", 2},
		{"reach", workload.WeightedGraph(24, 96, 10, 5) + workload.ReachModule("@rewrite none."), "reach", 2},
	}
	// Force multi-chunk tasks even on these small relations.
	defer func(old int) { parMinChunk = old }(parMinChunk)
	parMinChunk = 4

	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			seqSys, err := LoadSystem(p.src)
			if err != nil {
				t.Fatal(err)
			}
			seqSys.Parallelism = 1
			parSys, err := LoadSystem(p.src)
			if err != nil {
				t.Fatal(err)
			}
			parSys.Parallelism = 4

			seq := answersInOrder(t, seqSys, p.pred, p.arity)
			par := answersInOrder(t, parSys, p.pred, p.arity)
			if !sameStrings(seq, par) {
				t.Fatalf("answer streams diverge:\nseq (%d): %v\npar (%d): %v",
					len(seq), seq, len(par), par)
			}
			if len(seq) == 0 {
				t.Fatal("workload produced no answers")
			}
		})
	}
}

// TestSmallRoundsRunInline: a round whose delta cannot fill two chunks runs
// on the caller's goroutine whatever the worker budget — the whole of a
// point query over a 4-node component, the shape bench/'s serve workloads
// send. Pool goroutines start nowhere but in a counted pool round, so no
// pool round means the request started none.
func TestSmallRoundsRunInline(t *testing.T) {
	sys := buildSystem(t, `
edge(0, 1). edge(0, 2). edge(1, 2). edge(1, 3). edge(2, 3). edge(2, 0). edge(3, 0). edge(3, 1).
`+workload.TCModule(""))
	sys.Parallelism = 4
	base := runtime.NumGoroutine()
	got, stats := askView(t, sys.NewView(nil), "tc(0, X)")
	if len(got) != 4 {
		t.Fatalf("tc(0, X) = %v, want the four nodes", got)
	}
	if stats.Iterations == 0 || stats.ParallelRounds != 0 {
		t.Fatalf("a four-answer fixpoint ran %d of its %d rounds on the worker pool", stats.ParallelRounds, stats.Iterations)
	}
	assertNoGoroutineLeak(t, base)
}

// TestParallelRoundsReported asserts the worker-pool path actually engages
// (guarding against a silently dead parallel branch) and that its engine
// counters match sequential evaluation.
func TestParallelRoundsReported(t *testing.T) {
	src := workload.RandomGraph(16, 48, 11) + workload.TCModule("@rewrite none.")
	key := ast.PredKey{Name: "tc", Arity: 2}
	args := []term.Term{term.NewVar("X"), term.NewVar("Y")}

	defer func(old int) { parMinChunk = old }(parMinChunk)
	parMinChunk = 4

	seqSys, _ := LoadSystem(src)
	seqSys.Parallelism = 1
	seqStats, err := seqSys.MeasureCall(key, args)
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.ParallelRounds != 0 {
		t.Fatalf("sequential run reported %d parallel rounds", seqStats.ParallelRounds)
	}

	parSys, _ := LoadSystem(src)
	parSys.Parallelism = 4
	parStats, err := parSys.MeasureCall(key, args)
	if err != nil {
		t.Fatal(err)
	}
	if parStats.ParallelRounds == 0 {
		t.Fatal("parallel run never used the worker pool")
	}
	if parStats.Answers != seqStats.Answers ||
		parStats.Iterations != seqStats.Iterations ||
		parStats.Derivations != seqStats.Derivations ||
		parStats.FactsStored != seqStats.FactsStored {
		t.Fatalf("counter mismatch:\nseq %+v\npar %+v", seqStats, parStats)
	}
}

// TestParallelDisabledForAggSelections pins the safety fallback: aggregate
// selections delete displaced facts mid-round, so their strata must run
// sequentially even when parallelism is requested.
func TestParallelDisabledForAggSelections(t *testing.T) {
	src := workload.WeightedGraph(12, 48, 10, 2) + workload.ShortestPathModule("@rewrite none.")
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	sys.Parallelism = 4
	stats, err := sys.MeasureCall(ast.PredKey{Name: "s_p", Arity: 4},
		[]term.Term{term.Int(0), term.NewVar("Y"), term.NewVar("P"), term.NewVar("C")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParallelRounds != 0 {
		t.Fatalf("aggregate-selection stratum ran %d parallel rounds", stats.ParallelRounds)
	}
	if stats.Answers == 0 {
		t.Fatal("no shortest paths computed")
	}
}

// TestAggSelectionChurnTerminates is the totalFacts regression test: a
// stratum whose rounds only produce facts that an @aggregate_selection
// immediately prunes (rejects, or accepts and then deletes the displaced
// fact) must still reach the fixpoint, in a bounded number of rounds.
// totalFacts measures progress via Snapshot(), which counts accepted
// inserts even when a displaced fact dies in the same round — an append
// always grows Snapshot, so a round without appends always terminates the
// stratum; the worst case is one extra no-op round after a replacement.
func TestAggSelectionChurnTerminates(t *testing.T) {
	t.Run("any-rejects-cycle", func(t *testing.T) {
		// best(a,1) is derived every round but any(C) admits one fact per
		// group: the insert is rejected, Snapshot stays flat, the stratum
		// must close on the next progress check.
		src := `
start(a, 0).
step(0, 1).
step(1, 0).
module m.
export best(ff).
@rewrite none.
@eager.
@aggregate_selection best(X, C) (X) any(C).
best(X, C) :- start(X, C).
best(X, C1) :- best(X, C), step(C, C1).
end_module.
`
		sys := buildSystem(t, src)
		stats, err := sys.MeasureCall(ast.PredKey{Name: "best", Arity: 2},
			[]term.Term{term.NewVar("X"), term.NewVar("C")})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Answers != 1 {
			t.Fatalf("answers = %d, want 1", stats.Answers)
		}
		if stats.Iterations > 3 {
			t.Fatalf("iterations = %d: progress predicate over-iterates", stats.Iterations)
		}
	})

	t.Run("min-replacement-chain", func(t *testing.T) {
		// Each round derives a strictly better cost, so min(C) accepts the
		// insert and deletes the displaced fact: Snapshot grows while Len
		// stays 1. The chain re-enters its own start (step(0, 5)), so a
		// naive "any accepted insert = progress" predicate that ignored
		// duplicate rejection would rederive forever; termination plus the
		// iteration bound pin the fix.
		src := `
start(a, 5).
step(5, 4).
step(4, 3).
step(3, 2).
step(2, 1).
step(1, 0).
step(0, 5).
module m.
export best(ff).
@rewrite none.
@eager.
@aggregate_selection best(X, C) (X) min(C).
best(X, C) :- start(X, C).
best(X, C1) :- best(X, C), step(C, C1).
end_module.
`
		sys := buildSystem(t, src)
		stats, err := sys.MeasureCall(ast.PredKey{Name: "best", Arity: 2},
			[]term.Term{term.NewVar("X"), term.NewVar("C")})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Answers != 1 {
			t.Fatalf("answers = %d, want 1 (the minimum)", stats.Answers)
		}
		// 5 improvements + the closing no-op rounds; anything much larger
		// means the replacement churn kept the fixpoint spinning.
		if stats.Iterations > 8 {
			t.Fatalf("iterations = %d: replacement churn over-iterates", stats.Iterations)
		}
	})
}
