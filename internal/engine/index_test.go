package engine

import (
	"errors"
	"runtime"
	"testing"

	"coral/internal/relation"
	"coral/internal/term"
	"coral/internal/workload"
)

// TestHashJoinBudgetAbort aborts evaluations mid-join — in index probe loops
// (poll per tuple) and on the fact budget — and checks the abort is a clean
// *AbortError, no goroutine outlives it, and the System recovers to
// byte-identical answers once the budget is lifted.
func TestHashJoinBudgetAbort(t *testing.T) {
	defer func(old int) { budgetCheckEvery = old }(budgetCheckEvery)
	budgetCheckEvery = 1
	defer func(old int) { parMinChunk = old }(parMinChunk)
	parMinChunk = 4
	src := workload.RandomGraph(12, 36, 5) + `
module m.
export p(ff).
@rewrite none.
p(X, Y) :- edge(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
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
			t.Fatal("sweep never tripped an abort")
		}
		assertNoGoroutineLeak(t, base)
	}
}

// TestIndexProbeBehindModuleCall: a bound literal to the right of a module
// call is served from its relation's index. The call's answers bind Z one
// tuple at a time, edge(Z, Y) is probed once per answer through the join
// position's index cursor, and the answers are the reference evaluator's.
func TestIndexProbeBehindModuleCall(t *testing.T) {
	src := workload.RandomGraph(40, 160, 9) + `
module a.
export r(ff).
r(X, Y) :- edge(X, Y).
end_module.
module b.
export q(ff).
q(X, Y) :- r(X, Z), edge(Z, Y).
end_module.
`
	if got := diffGoal(t, src, "q(X, Y)"); len(got) == 0 {
		t.Fatal("no answers")
	}
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	edge, _ := sys.BaseRelation("edge", 2)
	if !edge.HasIndex(0) {
		t.Fatal("installing module b did not index edge on the position q's rule binds")
	}
	if _, st := measureModule(t, sys, "q", term.NewVar("X"), term.NewVar("Y")); st.HashJoinProbes < 160 {
		t.Fatalf("edge(Z, Y) should be probed through its index once per call answer (160): %+v", st)
	}
}

// joinOrderSource is the join-order row of the root TestPaperClaims on the
// default path: edge has 1,000 rows over 200 nodes, pick one, and q's body
// is written in the given order.
func joinOrderSource(ann, body string) string {
	return workload.RandomGraph(200, 1000, 31) + "pick(7).\nmodule m.\nexport q(b, f).\n@rewrite none.\n" + ann +
		"q(P) :- " + body + ".\nend_module.\n"
}

// TestWrittenOrderProbesIndexes: a body written in the order the planner
// would choose makes no more attempts than the same body written badly and
// reordered by the planner. The planner leaves a good written order alone,
// so the indexes its bound literals probe must come from the index policy
// (Program.IndexReqs at AddModule, ensurePlanIndexes on every fitted
// schedule), not only from a reorder.
func TestWrittenOrderProbesIndexes(t *testing.T) {
	const bad = "edge(X, Y), edge(Y, Z), pick(P), edge(P, X)"
	measure := func(ann, body string) RunStats {
		_, st := measureModule(t, buildSystem(t, joinOrderSource(ann, body)), "q", term.Int(7))
		return st
	}
	reordered := measure("", bad)
	for _, arm := range []struct{ name, ann, body string }{
		{"@reorder", "@reorder.\n", bad},
		{"written good", "", "pick(P), edge(P, X), edge(X, Y), edge(Y, Z)"},
	} {
		got := measure(arm.ann, arm.body)
		t.Logf("%s: %d attempts; bad order reordered by the planner: %d", arm.name, got.Attempts, reordered.Attempts)
		if got.Answers != reordered.Answers || got.Attempts > reordered.Attempts {
			t.Errorf("%s: %+v; the planner's reorder of the bad order: %+v", arm.name, got, reordered)
		}
	}
}

// TestSnapshotViewProbesBaseIndexes: a snapshot session may not create an
// index on a shared base relation, so the index its bound probes need must
// exist before it starts. With no @make_index, installing the module
// creates it, and a snapshot view query does the work of a live call, which
// may create indexes itself.
func TestSnapshotViewProbesBaseIndexes(t *testing.T) {
	src := joinOrderSource("", "edge(X, Y), edge(Y, Z), pick(P), edge(P, X)")
	snap := buildSystem(t, src)
	got, viewed := askView(t, snap.NewView(snap.SnapshotBases()), "q(7)")
	_, live := measureModule(t, buildSystem(t, src), "q", term.Int(7))
	// The view's one-literal query rule adds one attempt per answer it reads.
	if len(got) != live.Answers || viewed.Attempts != live.Attempts+live.Answers {
		t.Errorf("snapshot view: %d answers, %d attempts; live call: %d answers, %d attempts",
			len(got), viewed.Attempts, live.Answers, live.Attempts)
	}
}

// TestWritableUnwrapRefusesPrefix: hashRelOfWritable is the accessor plan
// index creation (ensurePlanIndexes) goes through, and it must never unwrap a
// snapshot view down to the writable relation underneath — a MakeIndex
// through a Prefix would mutate state every pinned session reads.
// Regression for the plan-index path that previously unwrapped via
// hashRelOf and relied solely on the sharedRO ownership gate.
func TestWritableUnwrapRefusesPrefix(t *testing.T) {
	hr := relationForUnwrapTest(t)
	if got := hashRelOf(hr.PrefixView()); got != hr {
		t.Fatalf("hashRelOf must still unwrap a Prefix for read paths, got %v", got)
	}
	if got := hashRelOfWritable(hr.PrefixView()); got != nil {
		t.Fatalf("hashRelOfWritable unwrapped a snapshot Prefix to %v; writes could tear pinned sessions", got)
	}
	if got := hashRelOfWritable(hr); got != hr {
		t.Fatal("hashRelOfWritable must pass a plain HashRelation through")
	}
	if got := hashRelOfWritable(relSource{r: hr}); got != hr {
		t.Fatal("hashRelOfWritable must pass a relSource-wrapped HashRelation through")
	}
}

// relationForUnwrapTest builds a small relation with a couple of facts so
// Prefix views over it are non-trivial.
func relationForUnwrapTest(t *testing.T) *relation.HashRelation {
	t.Helper()
	hr := relation.NewHashRelation("e", 2)
	for i := 0; i < 3; i++ {
		hr.Insert(relation.NewFact([]term.Term{term.Int(i), term.Int(i + 1)}, nil))
	}
	return hr
}
