package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/term"
	"coral/internal/workload"
)

var updateStreams = flag.Bool("update", false, "rewrite testdata/pipelined_streams.golden with current output")

// streamCase is one pipelined program and the goals asked of it, in order,
// on one System. A goal on an export streams the module's answers in the
// order they come, duplicates included; a goal on a base relation (what
// assert/retract left behind) lists it through System.Query. A goal
// prefixed "view:" runs through a read-only View.
type streamCase struct {
	name  string
	src   string
	goals []string
}

// pipelinedStreamCases are the pipelined programs of the engine, root and
// view tests, the pipelined FuzzEval seed, the error cases, and generated
// modules over acyclic data.
func pipelinedStreamCases() []streamCase {
	cases := []streamCase{
		{"TestPipelinedModule", chainFacts(6) + `
module anc.
export ancestor(bf).
@pipelining.
ancestor(X, Y) :- edge(X, Y).
ancestor(X, Y) :- edge(X, Z), ancestor(Z, Y).
end_module.
`, []string{"ancestor(0, Y)", "ancestor(4, Y)"}},
		{"TestPipelinedRuleOrder", `
first(one). second(two).
module m.
export pick(f).
@pipelining.
pick(X) :- first(X).
pick(X) :- second(X).
end_module.
`, []string{"pick(X)"}},
		{"TestPipelinedListProgram", `
module lists.
export rev(bf).
@pipelining.
rev(L, R) :- rev_acc(L, [], R).
rev_acc([], A, A).
rev_acc([H|T], A, R) :- rev_acc(T, [H|A], R).
end_module.
`, []string{"rev([1,2,3], R)", "rev([], R)", "rev([a, f(b), [c]], R)"}},
		{"TestPipelinedNegation", `
d(1). d(2). d(3). blocked(2).
module m.
export ok(f).
@pipelining.
ok(X) :- d(X), not blocked(X).
end_module.
`, []string{"ok(X)"}},
		{"TestPipelinedUpdates", `
item(1). item(2). item(3).
module m.
export log_big(f).
export clear_log(f).
@pipelining.
log_big(X) :- item(X), X > 1, assert(seen(X)).
clear_log(X) :- retract(seen(X)).
end_module.
`, []string{"log_big(X)", "seen(X)", "clear_log(2)", "seen(X)"}},
		{"TestDeepPipelinedRecursion", chainFacts(5000) + `
module m.
export reach(bb).
@pipelining.
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
end_module.
`, []string{"reach(0, 5000)", "reach(4990, Y)"}},
		{"TestThreeModuleChainMixedStrategies", chainFacts(8) + `
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
`, []string{"longhop(2, Y)"}},
		{"TestInterModuleCalls", chainFacts(5) + `
module reach.
export ancestor(bf, ff).
ancestor(X, Y) :- edge(X, Y).
ancestor(X, Y) :- edge(X, Z), ancestor(Z, Y).
end_module.

module far.
export farpair(ff).
@pipelining.
farpair(X, Y) :- ancestor(X, Y), Y - X >= 3.
end_module.
`, []string{"farpair(X, Y)"}},
		{"TestExplainPipelinedRejected", chainFacts(2) + `
module p.
export r(bf).
@pipelining.
r(X, Y) :- edge(X, Y).
end_module.
`, []string{"r(0, Y)"}},
		{"diff/pipelined", workload.Chain(24) + workload.TCModule("@pipelining."), []string{"tc(X, Y)"}},
		{"diff/pipelined-right-linear", workload.Chain(12) + workload.RightLinearTC("@pipelining."), []string{"tc(0, Y)"}},
		{"coral/TestCallPipelinedModule", `
edge(1, 2). edge(2, 3).
module m.
export r(bf).
@pipelining.
r(X, Y) :- edge(X, Y).
r(X, Y) :- edge(X, Z), r(Z, Y).
end_module.
`, []string{"r(1, Y)"}},
		{"view/TestViewReadOnlyRejectsUpdates", `
module updater. @pipelining.
export bump(b).
bump(X) :- assert(mark(X)).
end_module.
`, []string{"view:bump(a)", "bump(b)", "mark(X)"}},
		{"error/negation-unbound", `
d(1).
module m.
export bad(f).
@pipelining.
bad(X) :- not d(X).
end_module.
`, []string{"bad(1)", "bad(X)"}},
		{"error/assert-module-predicate", `
module a.
export p(f).
p(1).
end_module.
module m.
export bad(f).
@pipelining.
bad(X) :- assert(p(X)).
end_module.
`, []string{"bad(7)"}},
	}
	// The pipelined FuzzEval seed, with its inline query.
	for i, seed := range workload.EvalFuzzSeeds {
		if strings.Contains(seed, "@pipelining") {
			src, query, _ := strings.Cut(seed, "?- ")
			cases = append(cases, streamCase{fmt.Sprintf("fuzzseed/%d", i), src, []string{strings.TrimSuffix(query, ".")}})
		}
	}
	for seed := int64(1); seed <= 16; seed++ {
		cases = append(cases, acyclicPipelinedCase(seed))
	}
	return cases
}

// acyclicPipelinedCase generates a pipelined module whose predicates
// p0..pk call only higher-numbered ones, over an acyclic graph, so the
// top-down evaluation terminates whatever the rules. Bodies mix base and
// module literals, comparisons, arithmetic, negation of base and of module
// predicates, right recursion through edge, and facts in the module.
func acyclicPipelinedCase(seed int64) streamCase {
	r := rand.New(rand.NewSource(seed))
	n := 5 + r.Intn(4)
	var b strings.Builder
	seen := map[[2]int]bool{}
	for e := 0; e < n+r.Intn(n); e++ {
		x := r.Intn(n - 1)
		y := x + 1 + r.Intn(n-1-x)
		if !seen[[2]int{x, y}] {
			seen[[2]int{x, y}] = true
			fmt.Fprintf(&b, "edge(%d, %d).\n", x, y)
		}
	}
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			fmt.Fprintf(&b, "mark(%d).\n", i)
		}
	}
	fmt.Fprintf(&b, "mark(%d).\n", n)
	k := 3 + r.Intn(2)
	b.WriteString("module g.\nexport p0(ff, bf).\n@pipelining.\n")
	lit := func(i int) string {
		if j := i + 1 + r.Intn(k); j < k {
			return fmt.Sprintf("p%d", j)
		}
		return "edge"
	}
	for i := 0; i < k; i++ {
		for rules := 1 + r.Intn(3); rules > 0; rules-- {
			p := fmt.Sprintf("p%d", i)
			switch r.Intn(8) {
			case 0:
				fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Y).\n", p, lit(i))
			case 1:
				fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Z), %s(Z, Y).\n", p, lit(i), lit(i))
			case 2:
				fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Y), X + 2 < Y.\n", p, lit(i))
			case 3:
				fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Y), not mark(Y).\n", p, lit(i))
			case 4:
				fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Z), Y = Z * 10 + X.\n", p, lit(i))
			case 5:
				fmt.Fprintf(&b, "%s(X, Y) :- edge(X, Z), %s(Z, Y).\n", p, p)
			case 6:
				fmt.Fprintf(&b, "%s(X, Y) :- edge(X, Y), not %s(Y, X).\n", p, lit(i))
			default:
				fmt.Fprintf(&b, "%s(%d, %d).\n", p, r.Intn(n), r.Intn(n))
			}
		}
	}
	b.WriteString("end_module.\n")
	return streamCase{fmt.Sprintf("acyclic/%d", seed), b.String(), []string{"p0(X, Y)", fmt.Sprintf("p0(%d, Y)", r.Intn(n))}}
}

// streamGoal renders one goal's answers, one per line, or the error that
// ended the stream after the answers before it.
func streamGoal(sys *System, goal string) string {
	var b strings.Builder
	err := func() (err error) {
		defer recoverEval(&err)
		if g, ok := strings.CutPrefix(goal, "view:"); ok {
			q, err := parser.ParseQuery(g)
			if err != nil {
				return err
			}
			_, facts, _, err := sys.NewView(nil).Query(q.Body)
			for _, f := range facts {
				fmt.Fprintln(&b, f)
			}
			return err
		}
		t, err := parser.ParseTerm(goal)
		if err != nil {
			return err
		}
		f := t.(*term.Functor)
		key := ast.PredKey{Name: f.Sym, Arity: len(f.Args)}
		def, ok := sys.Export(key)
		if !ok {
			q, err := parser.ParseQuery(goal)
			if err != nil {
				return err
			}
			_, facts, _, err := sys.Query(q.Body)
			for _, f := range facts {
				fmt.Fprintln(&b, f)
			}
			return err
		}
		it, err := def.Call(key, f.Args, nil)
		if err != nil {
			return err
		}
		for {
			f, ok := it.Next()
			if !ok {
				return nil
			}
			fmt.Fprintln(&b, f)
		}
	}()
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	return b.String()
}

// TestPipelinedStreamsGolden pins the answer stream of every pipelined
// program above, order and duplicates included, or the error text that ends
// it: pipelining guarantees rule order and left-to-right literal order
// (paper §5.2), so the stream itself is the contract. Regenerate
// deliberately with `go test -run TestPipelinedStreamsGolden -update`.
func TestPipelinedStreamsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range pipelinedStreamCases() {
		fmt.Fprintf(&b, "== %s\n", c.name)
		sys, err := LoadSystem(c.src)
		if err != nil {
			fmt.Fprintf(&b, "load error: %v\n", err)
			continue
		}
		for _, g := range c.goals {
			fmt.Fprintf(&b, "?- %s\n%s", g, streamGoal(sys, g))
		}
	}
	const golden = "testdata/pipelined_streams.golden"
	if *updateStreams {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("pipelined streams drifted from %s at line %d: got %q, want %q (re-run with -update if deliberate)", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("pipelined streams drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// TestUndefinedExportRejected: a module exporting a predicate it defines no
// rules for is rejected at install with one error, whether it is evaluated
// materialized, without rewriting, or pipelined.
func TestUndefinedExportRejected(t *testing.T) {
	for _, ann := range []string{"", "@rewrite none.\n", "@pipelining.\n"} {
		u, err := parser.Parse("module m.\nexport q(f).\n" + ann + "p(1).\nend_module.\n")
		if err != nil {
			t.Fatal(err)
		}
		err = NewSystem().AddModule(u.Modules[0])
		const want = "module m, query form q(f): rewrite: query predicate q/1 is not defined by the module"
		if err == nil || err.Error() != want {
			t.Errorf("%q: AddModule error %v, want %q", ann, err, want)
		}
	}
}
