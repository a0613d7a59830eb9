package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/term"
	"coral/internal/workload"
)

// The differential suite: the reference evaluator against the engine as
// configureEval sets it, at Parallelism 1 and 4. It is the one place the
// engine's paths — planned order, plan indexes, register bytecode, flow
// optimizations, static seeding, the worker pool — are held to an
// evaluation that uses none of them. CI runs it under -race -cpu=1,4.
//
// What is compared: the planner changes the order rule bodies enumerate in,
// so reference and engine must agree as sorted answer sets; Parallelism 1
// and 4 run the same plans and must produce the same answer stream, byte
// for byte, in order.

// refExternal resolves a reference evaluation's body predicates: module
// exports evaluate on the reference evaluator too, everything else is the
// system's own resolver.
func refExternal(sys *System) func(ast.PredKey) (Source, error) {
	var ext func(ast.PredKey) (Source, error)
	ext = func(key ast.PredKey) (Source, error) {
		if def, ok := sys.Export(key); ok {
			return refModuleSource{def: def, pred: key, ext: ext}, nil
		}
		return liveExternal(sys)(key)
	}
	return ext
}

// refModuleSource is callSource over the reference evaluator.
type refModuleSource struct {
	def  *ModuleDef
	pred ast.PredKey
	ext  func(ast.PredKey) (Source, error)
}

func (s refModuleSource) Lookup(pattern []term.Term, env *term.Env) relation.Iterator {
	_, it, err := refEval(s.def, s.ext, s.pred, pattern, env)
	if err != nil {
		Throw(err)
	}
	return it
}

func (s refModuleSource) LookupRange(pattern []term.Term, env *term.Env, from, to relation.Mark) relation.Iterator {
	if from == 0 {
		return s.Lookup(pattern, env)
	}
	return relation.EmptyIterator()
}

func (s refModuleSource) Snapshot() relation.Mark { return 0 }

// refEval sets up the reference evaluation of one call: a bare newMatEval —
// written order, index lookups, the interpreter, one worker, no static
// estimates: the zero flags of configureEval's reference row — over a program compiled
// without the flow optimizations. Pipelined modules have no program of
// their own; their rules are evaluated bottom-up like any other module's.
func refEval(def *ModuleDef, ext func(ast.PredKey) (Source, error), key ast.PredKey, args []term.Term, env *term.Env) (*matEval, relation.Iterator, error) {
	form, err := def.selectForm(key, args, env)
	if err != nil {
		return nil, nil, err
	}
	prog, err := buildProgram(def.Src, key, form, nil, false)
	if err != nil {
		return nil, nil, err
	}
	me := newMatEval(prog, ext)
	me.addSeed(args, env)
	return me, def.newAnswerScan(me, prog, key, args, env), nil
}

// refCall evaluates goal on the reference evaluator and returns the answers
// in scan order with the evaluation's counters.
func refCall(sys *System, goal ast.Literal) (out []string, stats RunStats, err error) {
	defer recoverEval(&err)
	def, ok := sys.Export(goal.Key())
	if !ok {
		return nil, RunStats{}, fmt.Errorf("no module exports %s", goal.Key())
	}
	me, it, err := refEval(def, refExternal(sys), goal.Key(), goal.Args, nil)
	if err != nil {
		return nil, RunStats{}, err
	}
	for {
		f, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, f.String())
	}
	stats = me.runStats()
	stats.Answers = len(out)
	return out, stats, nil
}

// engineCall evaluates goal through ModuleDef.Call — the engine as
// configureEval sets it — and returns the answers in scan order.
func engineCall(sys *System, goal ast.Literal) ([]string, error) {
	return drainCall(sys, goal.Pred, len(goal.Args), goal.Args)
}

// parseGoal parses a single-literal goal such as "tc(0, X)".
func parseGoal(t *testing.T, goal string) ast.Literal {
	t.Helper()
	q, err := parser.ParseQuery(goal)
	if err != nil || len(q.Body) != 1 {
		t.Fatalf("goal %q: %v", goal, err)
	}
	return q.Body[0]
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// diffGoal holds src's goal to the contract above and returns the reference
// answers, sorted. Each arm loads a fresh System, so no plan, table or
// bytecode cache carries over.
func diffGoal(t *testing.T, src, goal string) []string {
	t.Helper()
	load := func(par int) *System {
		sys, err := LoadSystem(src)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		sys.Parallelism = par
		return sys
	}
	g := parseGoal(t, goal)
	ref, _, err := refCall(load(1), g)
	if err != nil {
		t.Fatalf("%s: reference evaluator: %v", goal, err)
	}
	want := sortedCopy(ref)
	var streams [2][]string
	for i, par := range []int{1, 4} {
		got, err := engineCall(load(par), g)
		if err != nil {
			t.Fatalf("%s par %d: %v", goal, par, err)
		}
		if !sameStrings(want, sortedCopy(got)) {
			t.Errorf("%s par %d: engine diverges from the reference evaluator\nreference: %v\nengine:    %v",
				goal, par, want, sortedCopy(got))
		}
		streams[i] = got
	}
	if !sameStrings(streams[0], streams[1]) {
		t.Errorf("%s: Parallelism 4 changed the answer stream\npar 1: %v\npar 4: %v", goal, streams[0], streams[1])
	}
	return want
}

// TestDifferentialRandom runs seeded random mutually recursive programs —
// recursive core plus, seed-dependently, a stratified negation layer (q0)
// and a min aggregate selection (agg0) — under every materialized fixpoint
// (BSN, PSN, naive, Ordered Search), with and without magic rewriting.
// Across strategies the answer sets must agree too — except agg0 under
// Ordered Search, whose single fixpoint streams agg0 facts to the lazy
// answer scan before a smaller one displaces them (both evaluators alike).
func TestDifferentialRandom(t *testing.T) {
	defer func(old int) { parMinChunk = old }(parMinChunk)
	parMinChunk = 4 // multi-chunk parallel rounds on ten-node graphs

	anns := []string{
		"@rewrite none.\n", "@rewrite none.\n@psn.\n", "@rewrite none.\n@naive.\n",
		"", "@psn.\n", "@naive.\n", "@ordered_search.\n",
	}
	negSeeds, aggSeeds := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		facts := workload.RandomGraph(10, 25, seed)
		byPred := map[string][]string{}
		for _, ann := range anns {
			src := facts + workload.RandomDatalogModule(seed, ann)
			for _, pred := range []string{"p0", "q0", "agg0"} {
				if !strings.Contains(src, "export "+pred+"(") {
					continue
				}
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, strings.Join(strings.Fields(ann), ""), pred), func(t *testing.T) {
					got := diffGoal(t, src, pred+"(X, Y)")
					if pred == "p0" && len(got) == 0 {
						t.Fatal("differential program produced no answers")
					}
					if ann == "@ordered_search.\n" && pred == "agg0" {
						return
					}
					if prev, ok := byPred[pred]; ok && !sameStrings(prev, got) {
						t.Errorf("strategy %q changed the answer set\nbefore: %v\nnow:    %v", ann, prev, got)
					}
					byPred[pred] = got
				})
			}
		}
		if _, ok := byPred["q0"]; ok {
			negSeeds++
		}
		if _, ok := byPred["agg0"]; ok {
			aggSeeds++
		}
	}
	if negSeeds == 0 || aggSeeds == 0 {
		t.Fatalf("seed sweep exercised negation %d times, aggregation %d times; want both > 0", negSeeds, aggSeeds)
	}
}

// TestDifferentialPrograms covers the shapes each engine path was built
// for, one fixed program apiece.
func TestDifferentialPrograms(t *testing.T) {
	defer func(old int) { parMinChunk = old }(parMinChunk)
	parMinChunk = 4

	aggArith := workload.WeightedGraph(10, 30, 8, 5) + `
module m.
export best(ff).
@rewrite none.
@aggregate_selection dist(X, C) (X) min(C).
dist(Y, C) :- edge(X, Y, C).
dist(Y, C) :- dist(X, C1), edge(X, Y, C2), C = C1 + C2, C < 40.
best(X, C) :- dist(X, C).
end_module.
`
	for _, tc := range []struct{ name, src, goal string }{
		// Magic stays on: rule pruning plus the planner's magic-literal seed.
		{"bound-query-dead-rules", workload.RandomGraph(12, 30, 7) + `
module m.
export reach(bf).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
dead(X) :- deader(X).
deader(X) :- dead(X).
end_module.
`, "reach(0, Y)"},
		// A written cross product feeding a negation: the planner must
		// reorder without reaching "not reach(X, Y)" unbound.
		{"negation-cross-product", workload.RandomGraph(8, 12, 3) + `
node(n0). node(n1). node(n2). node(n3).
node(n4). node(n5). node(n6). node(n7).
module m.
export unreach(ff).
@rewrite none.
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
unreach(X, Y) :- node(X), node(Y), not reach(X, Y).
end_module.
`, "unreach(X, Y)"},
		// Arithmetic "=", comparisons and recursion (bytecode's fragment).
		{"builtins", workload.WeightedGraph(10, 30, 8, 5) + `
module m.
export far(ff).
@rewrite none.
dist(X, Y, C) :- edge(X, Y, C).
dist(X, Y, C) :- edge(X, Z, C1), dist(Z, Y, C2), C = C1 + C2, C < 40.
far(X, Y) :- dist(X, Y, C), C > 10.
end_module.
`, "far(X, Y)"},
		// Displacing inserts mid-round: no worker pool, and the machine and
		// the index cursor must see tombstones as the interpreter does.
		{"aggregate-selection-arith", aggArith, "best(X, C)"},
		// A dense doubly recursive rule: every delta tuple probes the
		// relation's own index.
		{"doubly-recursive", workload.RandomGraph(24, 140, 11) + `
module m.
export p(ff).
@rewrite none.
p(X, Y) :- edge(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
end_module.
`, "p(X, Y)"},
		// A callee export keeps no live statistics; its static estimate
		// prices the caller's join.
		{"module-call", workload.RandomGraph(15, 40, 3) + `
special(1). special(4).
module tiny.
export ok(f).
ok(X) :- special(X).
end_module.
module outer.
export q(ff).
q(X, Y) :- edge(X, Z), edge(Z, Y), ok(Y).
end_module.
`, "q(X, Y)"},
		{"save-module", workload.RandomGraph(12, 30, 11) + workload.TCModule("@save_module."), "tc(0, Y)"},
		{"ordered-search-win", workload.WinGameMoves(18, 2, 3, 7) + workload.WinModule("@ordered_search."), "win(p1)"},
		{"ordered-search-shortest-path", workload.WeightedGraph(10, 30, 8, 5) + workload.ShortestPathModule("@ordered_search."), "s_p(0, Y, P, C)"},
		// Pipelined modules never reach configureEval; their top-down
		// answers must match the bottom-up reference over the same rules.
		{"pipelined", workload.Chain(24) + workload.TCModule("@pipelining."), "tc(X, Y)"},
		{"pipelined-right-linear", workload.Chain(12) + workload.RightLinearTC("@pipelining."), "tc(0, Y)"},
		// The register machine's fragment boundaries (the FuzzEval seeds the
		// bytecode machine arrived with): repeated variables and a
		// structural "=" handed back to the interpreter, negation over a
		// partially built pattern, overflow out of the Int fast path.
		{"bc-structural-eq", "e(f(a), f(a)). e(f(a), g(b)).\nmodule s.\nexport q(f).\nq(X) :- e(W, W), W = f(X).\nend_module.\n", "q(X)"},
		{"bc-negation-pattern", "n(a). n(b). e(a, b).\nmodule ng.\nexport r(f).\nr(X) :- n(X), not e(X, X).\nend_module.\n", "r(X)"},
		{"bc-overflow", "big(4611686018427387904).\nmodule o.\nexport d(f).\nd(X) :- big(B), X = B * 3.\nend_module.\n", "d(X)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := diffGoal(t, tc.src, tc.goal); len(got) == 0 {
				t.Fatal("differential program produced no answers")
			}
		})
	}
}

// TestMixedRoundsByteIdentical: dispatch is by round size, so one closure at
// Parallelism 4 runs its fat early rounds on the worker pool and its thin
// tail round inline (the left-linear shape; every round of the dense doubly
// recursive one is fat) — and must still do exactly what Parallelism 1
// does. A rule version runs the same planned path on either side of the
// dispatch, over the indexes the same round prologue created, so the work
// counters — index builds and probes included — agree and the answer stream
// is identical.
func TestMixedRoundsByteIdentical(t *testing.T) {
	for _, shape := range []struct {
		name, rule string
		mixed      bool
	}{
		{"doubly-recursive", "p(X, Y) :- p(X, Z), p(Z, Y).", false},
		{"left-linear", "p(X, Y) :- p(X, Z), edge(Z, Y).", true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			src := workload.RandomGraph(96, 480, 1) + "\nmodule m.\nexport p(ff).\n@rewrite none.\np(X, Y) :- edge(X, Y).\n" + shape.rule + "\nend_module.\n"
			load := func(par int) *System {
				sys, err := LoadSystem(src)
				if err != nil {
					t.Fatal(err)
				}
				sys.Parallelism = par
				return sys
			}
			measure := func(par int) RunStats {
				_, stats := measureModule(t, load(par), "p", term.NewVar("X"), term.NewVar("Y"))
				return stats
			}
			seq, par := measure(1), measure(4)
			if seq.ParallelRounds != 0 || par.ParallelRounds == 0 {
				t.Fatalf("pool rounds: %d at Parallelism 1 (want none), %d at 4 (want some)", seq.ParallelRounds, par.ParallelRounds)
			}
			if shape.mixed && par.ParallelRounds >= par.Iterations {
				t.Fatalf("all %d rounds ran on the worker pool; the thin tail should run inline", par.Iterations)
			}
			if seq.Attempts != par.Attempts || seq.Derivations != par.Derivations ||
				seq.HashJoinProbes != par.HashJoinProbes || seq.HashJoinBuilds != par.HashJoinBuilds {
				t.Errorf("the dispatch changed the work done\npar 1: %+v\npar 4: %+v", seq, par)
			}
			if a, b := answersInOrder(t, load(1), "p", 2), answersInOrder(t, load(4), "p", 2); !sameStrings(a, b) {
				t.Errorf("the dispatch changed the answer stream (%d vs %d answers)", len(a), len(b))
			}
		})
	}
}
