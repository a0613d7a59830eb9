package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/term"
)

// Deeper cross-feature integration tests.

func TestThreeModuleChainMixedStrategies(t *testing.T) {
	// materialized -> pipelined -> materialized call chain, each module a
	// different strategy (the paper's central modularity claim, §5.6).
	src := chainFacts(8) + `
module base_paths.
export hop(bf).
hop(X, Y) :- edge(X, Y).
hop(X, Y) :- edge(X, Z), hop(Z, Y).
end_module.

module filters.
export longhop(bf).
@pipelining.
longhop(X, Y) :- hop(X, Y), Y - X >= 3.
end_module.

module tops.
export best(bf).
best(X, max(Y)) :- longhop(X, Y).
end_module.
`
	sys := buildSystem(t, src)
	got := ask(t, sys, "best(2, M)")
	if len(got) != 1 || got[0] != "(8)" {
		t.Fatalf("best(2,M): %v", got)
	}
}

func TestModuleWithMultipleQueryForms(t *testing.T) {
	sys := buildSystem(t, chainFacts(6)+`
module tc.
export tc(bf, fb, ff).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`)
	// Each binding pattern picks the most selective declared form.
	if got := ask(t, sys, "tc(2, Y)"); len(got) != 4 {
		t.Errorf("bf: %v", got)
	}
	if got := ask(t, sys, "tc(X, 3)"); len(got) != 3 {
		t.Errorf("fb: %v", got)
	}
	if got := ask(t, sys, "tc(X, Y)"); len(got) != 21 {
		t.Errorf("ff: %d", len(got))
	}
	def, _ := sys.Module("tc")
	if len(def.Programs()) < 3 {
		t.Errorf("programs built: %d", len(def.Programs()))
	}
}

func TestMakeIndexAnnotationInModule(t *testing.T) {
	src := `
module m.
export near(bf).
@make_index emp(Name, addr(Street, City)) (City).
near(C, N) :- emp(N, addr(S, C)).
end_module.
`
	sys := buildSystem(t, src)
	emp, err := sys.BaseRelation("emp", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		emp.Insert(relation.NewFact([]term.Term{
			term.Atom(fmt.Sprintf("n%d", i)),
			term.NewFunctor("addr", term.Atom(fmt.Sprintf("s%d", i)), term.Atom(fmt.Sprintf("c%d", i%10))),
		}, nil))
	}
	got := ask(t, sys, "near(c3, N)")
	if len(got) != 10 {
		t.Fatalf("near: %d answers", len(got))
	}
}

func TestOrderedSearchPositiveCycleMerging(t *testing.T) {
	// Mutually recursive subgoals through a positive cycle force context
	// node merging; the negation at the top must still see complete
	// answers. even/odd over a cycle-free chain via mutual recursion plus
	// a negation consumer.
	src := `
num(0, 1). num(1, 2). num(2, 3). num(3, 4).
module m.
export report(b).
@ordered_search.
even(0).
even(Y) :- num(X, Y), odd(X).
odd(Y) :- num(X, Y), even(X).
report(X) :- candidates(X), not odd(X).
candidates(0). candidates(1). candidates(2). candidates(3). candidates(4).
end_module.
`
	sys := buildSystem(t, src)
	for _, c := range []struct {
		x    string
		want bool
	}{{"0", true}, {"1", false}, {"2", true}, {"3", false}, {"4", true}} {
		got := ask(t, sys, fmt.Sprintf("report(%s)", c.x))
		if (len(got) == 1) != c.want {
			t.Errorf("report(%s) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestMaterializedCallsMaterializedModule(t *testing.T) {
	// A materialized module consuming another materialized module's
	// export inside a recursive rule: each lookup is an inter-module call
	// (paper §5.6).
	src := chainFacts(5) + `
module doubler.
export twice(bf).
twice(X, Z) :- edge(X, Y), edge(Y, Z).
end_module.

module jumps.
export jump(bf).
jump(X, Y) :- twice(X, Y).
jump(X, Y) :- twice(X, Z), jump(Z, Y).
end_module.
`
	sys := buildSystem(t, src)
	got := ask(t, sys, "jump(0, Y)")
	// twice steps of 2 from 0 on chain 0..5: 2, 4 reachable via jumps.
	want := []string{"(2)", "(4)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("jump: %v", got)
	}
}

func TestNonGroundSubsumptionInDerived(t *testing.T) {
	// A derived universal fact subsumes its instances in the same derived
	// relation.
	src := `
grantall(admin).
grant(alice, read).
module m.
export may(ff).
may(U, A) :- grantall(U), always(A).
may(U, A) :- grant(U, A).
always(X).
end_module.
`
	sys := buildSystem(t, src)
	got := ask(t, sys, "may(admin, write)")
	if len(got) != 1 {
		t.Fatalf("universal grant: %v", got)
	}
	got = ask(t, sys, "may(alice, read)")
	if len(got) != 1 {
		t.Fatalf("specific grant: %v", got)
	}
	if got, _ := askErr(sys, "may(alice, write)"); len(got) != 0 {
		t.Fatalf("unexpected grant: %v", got)
	}
}

func TestPipelinedListProgram(t *testing.T) {
	// Pipelined evaluation of list manipulation: reverse via accumulator,
	// a classic Prolog-style program that materialization cannot run with
	// a free accumulator (unbounded terms) but pipelining handles
	// goal-directedly.
	src := `
module lists.
export rev(bf).
@pipelining.
rev(L, R) :- rev_acc(L, [], R).
rev_acc([], A, A).
rev_acc([H|T], A, R) :- rev_acc(T, [H|A], R).
end_module.
`
	sys := buildSystem(t, src)
	got := ask(t, sys, "rev([1,2,3], R)")
	if len(got) != 1 || got[0] != "([3, 2, 1])" {
		t.Fatalf("rev: %v", got)
	}
}

func TestPipelinedNegation(t *testing.T) {
	src := `
d(1). d(2). d(3). blocked(2).
module m.
export ok(f).
@pipelining.
ok(X) :- d(X), not blocked(X).
end_module.
`
	sys := buildSystem(t, src)
	got := ask(t, sys, "ok(X)")
	want := []string{"(1)", "(3)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("ok: %v", got)
	}
}

func TestDeepPipelinedRecursion(t *testing.T) {
	// 5000-deep recursion: 5000 nested goals, each a suspended driver run.
	src := chainFacts(5000) + `
module m.
export reach(bb).
@pipelining.
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
end_module.
`
	sys := buildSystem(t, src)
	got := ask(t, sys, "reach(0, 5000)")
	if len(got) != 1 {
		t.Fatalf("deep reach: %v", got)
	}
	// The bound edge literals read edge's index on its first argument (the
	// pipelined module's index requests): a few tuples per level, where a
	// scan of the whole relation at every level makes ~50 million attempts.
	st, err := sys.MeasureCall(ast.PredKey{Name: "reach", Arity: 2}, []term.Term{term.Int(0), term.Int(5000)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts >= 100000 {
		t.Errorf("reach(0, 5000) made %d attempts, want < 100,000 (index lookups)", st.Attempts)
	}
}

func TestSetGroupingOfStructuredTerms(t *testing.T) {
	src := `
owns(ann, pet(dog, rex)). owns(ann, pet(cat, tom)). owns(bob, pet(dog, fido)).
module m.
export pets(ff).
pets(P, <A>) :- owns(P, A).
end_module.
`
	sys := buildSystem(t, src)
	got := ask(t, sys, "pets(ann, S)")
	if len(got) != 1 || got[0] != "([pet(cat, tom), pet(dog, rex)])" {
		t.Fatalf("pets: %v", got)
	}
}

func TestAggregationAnyAndMax(t *testing.T) {
	src := `
bid(a, 5). bid(a, 9). bid(b, 2).
module m.
export top(ff), witness(ff).
top(I, max(B)) :- bid(I, B).
witness(I, any(B)) :- bid(I, B).
end_module.
`
	// Note: two exports on one line is invalid; keep separate.
	src = strings.Replace(src, "export top(ff), witness(ff).", "export top(ff).\nexport witness(ff).", 1)
	sys := buildSystem(t, src)
	got := ask(t, sys, "top(I, B)")
	want := []string{"(a, 9)", "(b, 2)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("top: %v", got)
	}
	got = ask(t, sys, "witness(a, B)")
	if len(got) != 1 {
		t.Fatalf("witness: %v", got)
	}
}

func TestSaveModuleAcrossDistinctSeeds(t *testing.T) {
	sys := buildSystem(t, chainFacts(50)+`
module tc.
export tc(bf).
@save_module.
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`)
	def, _ := sys.Module("tc")
	totals := []int{}
	for _, seed := range []int{40, 30, 40, 20, 40} {
		got := ask(t, sys, fmt.Sprintf("tc(%d, Y)", seed))
		if len(got) != 50-seed {
			t.Fatalf("tc(%d): %d answers", seed, len(got))
		}
		me := def.saved["tc/bf"]
		totals = append(totals, me.ev.Derivations)
	}
	// Repeat seeds add no derivations.
	if totals[2] != totals[1] {
		t.Errorf("repeat seed 40 re-derived: %v", totals)
	}
	if totals[4] != totals[3] {
		t.Errorf("repeat seed 40 after 20 re-derived: %v", totals)
	}
	// New seeds add monotonically.
	if !(totals[0] <= totals[1] && totals[1] <= totals[3]) {
		t.Errorf("derivation totals not monotone: %v", totals)
	}
}

func TestExternalADTThroughEngine(t *testing.T) {
	// A Go-computed relation produces External values; rules join on them.
	sys := NewSystem()
	mk := func(x, y int) term.Term { return gridPoint{x, y} }
	sys.RegisterRelation(relation.NewComputed("sensor", 2, func(pattern []term.Term, env *term.Env) relation.Iterator {
		return relation.SliceIterator([]relation.Fact{
			relation.GroundFact(term.Atom("s1"), mk(1, 2)),
			relation.GroundFact(term.Atom("s2"), mk(3, 4)),
			relation.GroundFact(term.Atom("s3"), mk(1, 2)),
		})
	}))
	u, err := parser.Parse(`
module m.
export colocated(ff).
colocated(A, B) :- sensor(A, P), sensor(B, P), A != B.
end_module.
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddModule(u.Modules[0]); err != nil {
		t.Fatal(err)
	}
	got := ask(t, sys, "colocated(A, B)")
	want := []string{"(s1, s3)", "(s3, s1)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("colocated: %v", got)
	}
}

// gridPoint is a user-defined abstract data type (paper §7.1) flowing
// through rule evaluation.
type gridPoint struct{ x, y int }

func (gridPoint) Kind() term.Kind        { return term.KindExternal }
func (p gridPoint) String() string       { return fmt.Sprintf("#p(%d,%d)", p.x, p.y) }
func (gridPoint) TypeName() string       { return "gridPoint" }
func (p gridPoint) HashExternal() uint64 { return uint64(p.x)<<32 | uint64(uint32(p.y)) }
func (p gridPoint) EqualExternal(o term.External) bool {
	q, ok := o.(gridPoint)
	return ok && p == q
}

// Differential property test: Ordered Search on random acyclic win-move
// games must agree with a direct memoized game solver.
func TestQuickOrderedSearchMatchesReferenceSolver(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 15 + r.Intn(40)
		// Layered DAG moves i -> j with j > i.
		adj := make(map[int][]int)
		var facts strings.Builder
		for i := 0; i < n-1; i++ {
			k := 1 + r.Intn(3)
			for c := 0; c < k; c++ {
				to := i + 1 + r.Intn(4)
				if to >= n {
					to = n - 1
				}
				if to == i {
					continue
				}
				adj[i] = append(adj[i], to)
				fmt.Fprintf(&facts, "move(p%d, p%d).\n", i, to)
			}
		}
		// Reference: win(x) iff some move leads to a losing position.
		memo := make(map[int]bool)
		var wins func(int) bool
		wins = func(x int) bool {
			if v, ok := memo[x]; ok {
				return v
			}
			memo[x] = false // DAG: no cycles, placeholder unused
			res := false
			for _, y := range adj[x] {
				if !wins(y) {
					res = true
					break
				}
			}
			memo[x] = res
			return res
		}
		sys := buildSystem(t, facts.String()+`
module game.
export win(b).
@ordered_search.
win(X) :- move(X, Y), not win(Y).
end_module.
`)
		for x := 0; x < n; x++ {
			got := ask(t, sys, fmt.Sprintf("win(p%d)", x))
			if (len(got) == 1) != wins(x) {
				t.Fatalf("seed %d: win(p%d) = %v, reference %v", seed, x, got, wins(x))
			}
		}
	}
}

// Differential: the Figure 3 shortest-path program under Ordered Search
// must agree with a reference Dijkstra on random weighted digraphs
// (including cycles, which only terminate because of the aggregate
// selection).
func TestQuickShortestPathMatchesDijkstra(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(10)
		type edge struct{ u, v, w int }
		var edges []edge
		seen := map[[2]int]bool{}
		m := n + r.Intn(2*n)
		for len(edges) < m {
			u, v := r.Intn(n), r.Intn(n)
			if u == v || seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			edges = append(edges, edge{u, v, 1 + r.Intn(9)})
		}
		var facts strings.Builder
		for _, e := range edges {
			fmt.Fprintf(&facts, "edge(%d, %d, %d).\n", e.u, e.v, e.w)
		}
		// Reference Dijkstra from node 0. The CORAL program derives paths
		// of at least one edge, so dist[0] counts only via a cycle back.
		const inf = 1 << 30
		dist := make([]int, n)
		for i := range dist {
			dist[i] = inf
		}
		// Multi-relaxation Bellman-Ford (small n) seeded by 0's out-edges.
		for _, e := range edges {
			if e.u == 0 && e.w < dist[e.v] {
				dist[e.v] = e.w
			}
		}
		for iter := 0; iter < n+2; iter++ {
			for _, e := range edges {
				if dist[e.u] < inf && dist[e.u]+e.w < dist[e.v] {
					dist[e.v] = dist[e.u] + e.w
				}
			}
		}
		sys := buildSystem(t, facts.String()+`
module sp.
export s_p(bfff).
@ordered_search.
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(C)) :- p(X, Y, P, C).
p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC), P1 = [e(Z, Y)|P], C1 = C + EC.
p(X, Y, [e(X, Y)], C) :- edge(X, Y, C).
end_module.
`)
		got := map[int]int{}
		for _, row := range askFacts(t, sys, "s_p(0, Y, P, C)") {
			y := int(row[0].(term.Int))
			c := int(row[2].(term.Int))
			got[y] = c
		}
		for v := 0; v < n; v++ {
			want, reachable := dist[v], dist[v] < inf
			gotC, present := got[v]
			if present != reachable {
				t.Fatalf("seed %d: node %d reachable=%v but present=%v (got %v)", seed, v, reachable, present, got)
			}
			if present && gotC != want {
				t.Fatalf("seed %d: dist(0,%d) = %d, reference %d", seed, v, gotC, want)
			}
		}
	}
}

// askFacts returns raw answer tuples (terms, not strings).
func askFacts(t *testing.T, sys *System, q string) [][]term.Term {
	t.Helper()
	pq, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	_, facts, _, err := sys.Query(pq.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]term.Term, len(facts))
	for i, f := range facts {
		out[i] = f.Args
	}
	return out
}
