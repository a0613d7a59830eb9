package engine

import (
	"errors"
	"runtime"
	"testing"

	"coral/internal/relation"
	"coral/internal/term"
	"coral/internal/workload"
)

// TestPlannerPicksHashJoin is the deterministic CI gate behind
// EXPERIMENTS.md E21: on a dense transitive closure the planner must
// adopt the hash access path (builds and probes both non-zero), keep the
// answers identical, and attempt strictly fewer tuples than the reference
// evaluator's nested loops — the probe enumerates one bucket instead of the
// range a bare scan walks. @no_indexing keeps the optimizer from planting a
// persistent argIndex, so the reference side scans; build tables are
// transient per-range structures, not indexes, so the annotation does not
// gate them.
func TestPlannerPicksHashJoin(t *testing.T) {
	src := workload.RandomGraph(24, 140, 11) + `
module m.
export tc(ff).
@rewrite none.
@no_indexing.
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	sys.Parallelism = 1
	_, off, err := refCall(sys, parseGoal(t, "tc(X, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	_, on := measureModule(t, sys, "tc", term.NewVar("X"), term.NewVar("Y"))
	if on.Answers != off.Answers {
		t.Fatalf("hash joins changed the answer count: engine %d, reference %d", on.Answers, off.Answers)
	}
	if off.HashJoinBuilds != 0 || off.HashJoinProbes != 0 {
		t.Errorf("hash counters non-zero on the reference evaluator: %+v", off)
	}
	if on.HashJoinBuilds == 0 || on.HashJoinProbes == 0 {
		t.Fatalf("planner never adopted the hash path: %+v", on)
	}
	if on.Attempts >= off.Attempts {
		t.Errorf("hash path did not reduce attempts: %d hashed vs %d nested-loops",
			on.Attempts, off.Attempts)
	}
}

// TestHashJoinBudgetAbort aborts evaluations mid-hash-join — during table
// builds (poll per fact) and probes, and on the fact budget — and
// checks the abort is a clean *AbortError, no goroutine outlives it, and
// the System recovers to byte-identical answers once the budget is lifted.
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
			t.Fatal("sweep never tripped an abort through the hash path")
		}
		assertNoGoroutineLeak(t, base)
	}
}

// TestDriftReplanRebuildsTables: build tables are state the round owns — one
// slot per schedule position on the evaluation's plan entry for the rule
// version, filled by the round prologue. A closure seeded from five nodes of
// a 100-node graph starts with a recursive relation far too small to
// amortize a build over edge, so its delta version runs unmarked; as the
// relation doubles the drift check re-fits, the re-fit hash-marks edge, and
// the version's entry must come back with a fresh slot array whose marked
// slot the same prologue has filled. edge's range never moves, so that one
// build serves every later round; the answers are the reference's.
func TestDriftReplanRebuildsTables(t *testing.T) {
	src := workload.RandomGraph(100, 200, 3) + `
start(0). start(1). start(2). start(3). start(4).
module m.
export p(ff).
@rewrite none.
p(X, Y) :- start(X), edge(X, Y).
p(X, Y) :- p(X, Z), edge(Z, Y).
end_module.
`
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	goal := parseGoal(t, "p(X, Y)")
	want, _, err := refCall(sys, goal)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := sys.Export(goal.Key())
	var me *matEval
	cfg := sys.defaultCfg()
	cfg.onEval = func(m *matEval) { me = m }
	it, err := def.callWith(cfg, goal.Key(), goal.Args, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := me.prog.Strata[len(me.prog.Strata)-1].RecRules[0]
	key := planKey{c: rec, delta: rec.RecPositions[0]}
	var unmarked, marked *cachedPlan
	for !me.finished {
		me.step()
		switch p := me.plans[key]; {
		case p == nil:
		case p.tables == nil:
			if marked != nil {
				t.Fatal("the version went back to an unmarked plan; the test's premise is gone")
			}
			unmarked = p
		case marked == nil:
			marked = p
			slot := -1
			for i := range p.planned.Body {
				if p.planned.Body[i].HashKeyPos != nil {
					slot = i
				}
			}
			if bt := p.tables[slot]; bt == nil || int(bt.to-bt.from) != 200 {
				t.Fatalf("the re-fit marked position %d but the round prologue left its slot %+v", slot, bt)
			}
		}
	}
	if me.err != nil {
		t.Fatal(me.err)
	}
	if unmarked == nil || marked == nil || unmarked == marked {
		t.Fatalf("no drift re-plan changed the version's hash marks (unmarked %v, marked %v)", unmarked != nil, marked != nil)
	}
	if st := me.counters(); st.HashJoinBuilds != 1 || st.HashJoinProbes == 0 {
		t.Errorf("one build over edge should serve every round after the re-fit: %+v", st)
	}
	var got []string
	for f, ok := it.Next(); ok; f, ok = it.Next() {
		got = append(got, f.String())
	}
	if !sameStrings(sortedCopy(got), sortedCopy(want)) {
		t.Errorf("answers diverge from the reference evaluator: %d vs %d", len(got), len(want))
	}
}

// TestHashProbeBehindModuleCall: a module call keeps no marks (its Snapshot
// is 0), so the round prologue cannot read "empty range" off it and must
// still fill the slot of the hash-marked literal to its right.
func TestHashProbeBehindModuleCall(t *testing.T) {
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
	if _, st := measureModule(t, sys, "q", term.NewVar("X"), term.NewVar("Y")); st.HashJoinProbes == 0 {
		t.Fatalf("the planner did not hash-mark the literal behind the module call; the case is not exercised: %+v", st)
	}
}

// TestWritableUnwrapRefusesPrefix: hashRelOfWritable is the accessor index
// creation (ensurePlanIndexes) goes through, and it must never unwrap a
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
