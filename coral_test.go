package coral

import (
	"context"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"coral/internal/term"
)

func answersOf(t *testing.T, sys *System, q string) []string {
	t.Helper()
	ans, err := sys.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	var out []string
	for _, tup := range ans.Tuples {
		out = append(out, tup.String())
	}
	sort.Strings(out)
	return out
}

func TestQuickstartFlow(t *testing.T) {
	sys := New()
	_, err := sys.Consult(`
		edge(a, b). edge(b, c). edge(c, d).
		module paths.
		export path(bf, ff).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		end_module.
	`)
	if err != nil {
		t.Fatal(err)
	}
	got := answersOf(t, sys, "path(a, X)")
	want := []string{"(b)", "(c)", "(d)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("path(a,X): %v", got)
	}
}

func TestConsultInlineQueries(t *testing.T) {
	sys := New()
	results, err := sys.Consult(`
		num(1). num(2).
		?- num(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Tuples) != 2 {
		t.Fatalf("inline query results: %+v", results)
	}
	if len(results[0].Vars) != 1 || results[0].Vars[0] != "X" {
		t.Errorf("vars: %v", results[0].Vars)
	}
}

func TestConsultFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.crl")
	if err := writeFile(path, "f(1).\nf(2).\n"); err != nil {
		t.Fatal(err)
	}
	sys := New()
	if _, err := sys.ConsultFile(path); err != nil {
		t.Fatal(err)
	}
	if got := answersOf(t, sys, "f(X)"); len(got) != 2 {
		t.Errorf("facts: %v", got)
	}
	if _, err := sys.ConsultFile(filepath.Join(dir, "missing.crl")); err == nil {
		t.Error("missing file consulted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestRelationAPI(t *testing.T) {
	sys := New()
	rel, err := sys.BaseRelation("emp", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Insert(Atom("ann"), Func("addr", Atom("main"), Atom("madison"))) {
		t.Fatal("insert rejected")
	}
	if rel.Insert(Atom("ann"), Func("addr", Atom("main"), Atom("madison"))) {
		t.Fatal("duplicate accepted")
	}
	rel.Insert(Atom("bob"), Func("addr", Atom("oak"), Atom("nyc")))
	if rel.Len() != 2 || rel.Name() != "emp" || rel.Arity() != 2 {
		t.Fatalf("metadata: %d %s %d", rel.Len(), rel.Name(), rel.Arity())
	}
	if err := rel.MakePatternIndex("emp(Name, addr(Street, City))", "City"); err != nil {
		t.Fatal(err)
	}
	got, err := rel.Lookup(Var("N"), Func("addr", Var("S"), Atom("madison"))).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !Equal(got[0][0], Atom("ann")) {
		t.Fatalf("pattern lookup: %v", got)
	}
	n, err := rel.Delete(Atom("ann"), Wildcard())
	if err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	all, _ := rel.Scan().All()
	if len(all) != 1 {
		t.Errorf("after delete: %v", all)
	}
}

func TestCallScan(t *testing.T) {
	sys := New()
	if _, err := sys.Consult(`
		edge(1, 2). edge(2, 3). edge(3, 4).
		module m.
		export reach(bf).
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
		end_module.
	`); err != nil {
		t.Fatal(err)
	}
	scan, err := sys.Call("reach", Int(2), Var("Y"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := scan.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("call answers: %v", rows)
	}
	// Base relation calls work the same way.
	scan, err = sys.Call("edge", Var("X"), Var("Y"))
	if err != nil {
		t.Fatal(err)
	}
	rows, _ = scan.All()
	if len(rows) != 3 {
		t.Fatalf("base call: %v", rows)
	}
	if _, err := sys.Call("nosuch", Int(1)); err == nil {
		t.Error("unknown predicate call succeeded")
	}
}

func TestRegisterPredicate(t *testing.T) {
	sys := New()
	err := sys.RegisterPredicate("range", 2, func(pattern Tuple) ([]Tuple, error) {
		// range(N, X): X in 0..N-1; N must be bound to an integer.
		n, ok := pattern[0].(term.Int)
		if !ok {
			return nil, fmt.Errorf("range: first argument must be a bound integer, got %s", pattern[0])
		}
		out := make([]Tuple, 0, n)
		for x := term.Int(0); x < n; x++ {
			out = append(out, Tuple{n, x})
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Consult(`
		module m.
		export squares(bf).
		squares(N, S) :- range(N, X), S = X * X.
		end_module.
	`); err != nil {
		t.Fatal(err)
	}
	got := answersOf(t, sys, "squares(4, S)")
	want := []string{"(0)", "(1)", "(4)", "(9)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("squares: %v", got)
	}
}

func TestRewrittenProgramDump(t *testing.T) {
	sys := New()
	if _, err := sys.Consult(`
		module m.
		export p(bf).
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
		end_module.
	`); err != nil {
		t.Fatal(err)
	}
	text, err := sys.RewrittenProgram("m", "p", "bf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "m_p_bf") {
		t.Errorf("dump missing magic predicate:\n%s", text)
	}
	if _, err := sys.RewrittenProgram("m", "p", "zz"); err == nil {
		t.Error("bogus form accepted")
	}
	if _, err := sys.RewrittenProgram("nomod", "p", "bf"); err == nil {
		t.Error("bogus module accepted")
	}
}

func TestPersistentFlow(t *testing.T) {
	sys := New()
	path := filepath.Join(t.TempDir(), "facts.cdb")
	if err := sys.AttachStorage(path, 64); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rel, err := sys.PersistentRelation("edge", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rel.Insert(Int(int64(i)), Int(int64(i+1)))
	}
	if err := sys.CreatePersistentIndex("edge", 2, 0); err != nil {
		t.Fatal(err)
	}
	// Declarative rules over the persistent relation.
	if _, err := sys.Consult(`
		module m.
		export hop2(bf).
		hop2(X, Z) :- edge(X, Y), edge(Y, Z).
		end_module.
	`); err != nil {
		t.Fatal(err)
	}
	got := answersOf(t, sys, "hop2(10, Z)")
	if len(got) != 1 || got[0] != "(12)" {
		t.Fatalf("hop2: %v", got)
	}
	db, ok := sys.Storage()
	if !ok {
		t.Fatal("storage not attached")
	}
	if db.Stats().Hits+db.Stats().Misses == 0 {
		t.Error("no buffer pool activity recorded")
	}
	// PersistentRelation on the same name returns a working handle.
	again, err := sys.PersistentRelation("edge", 2)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 50 {
		t.Errorf("reopened handle Len = %d", again.Len())
	}
}

func TestTermConstructors(t *testing.T) {
	l := List(Int(1), Atom("a"), Str("s"))
	if l.String() != `[1, a, "s"]` {
		t.Errorf("List: %v", l)
	}
	lt := ListTail(Var("T"), Int(1))
	if lt.String() != "[1|T]" {
		t.Errorf("ListTail: %v", lt)
	}
	f := Func("point", Int(1), Float(2.5))
	if f.String() != "point(1, 2.5)" {
		t.Errorf("Func: %v", f)
	}
	pt, err := ParseTerm("f(1, [a|T])")
	if err != nil || pt.String() != "f(1, [a|T])" {
		t.Errorf("ParseTerm: %v %v", pt, err)
	}
	if Compare(Int(1), Int(2)) >= 0 {
		t.Error("Compare wrong")
	}
	if !Equal(Atom("x"), Atom("x")) {
		t.Error("Equal wrong")
	}
	if (Tuple{Int(1), Atom("b")}).String() != "(1, b)" {
		t.Error("Tuple.String wrong")
	}
}

func TestQueryErrors(t *testing.T) {
	sys := New()
	if _, err := sys.Query("p(X"); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := sys.Consult("module m. p(X) :- q(X."); err == nil {
		t.Error("bad module accepted")
	}
}

func TestExplainAPI(t *testing.T) {
	sys := New()
	if _, err := sys.Consult(`
		edge(a, b). edge(b, c).
		module paths.
		export path(bf).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		end_module.
	`); err != nil {
		t.Fatal(err)
	}
	out, err := sys.Explain("path(a, c)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "base fact") || !strings.Contains(out, "by rule") {
		t.Errorf("explanation:\n%s", out)
	}
	if _, err := sys.Explain("nosuch(a)"); err == nil {
		t.Error("unknown goal explained")
	}
	if _, err := sys.Explain("not a goal ("); err == nil {
		t.Error("garbage goal accepted")
	}
}

func TestTextFilePersistenceRoundTrip(t *testing.T) {
	sys := New()
	rel, err := sys.BaseRelation("emp", 2)
	if err != nil {
		t.Fatal(err)
	}
	rel.Insert(Atom("ann"), Func("addr", Atom("main"), Atom("madison")))
	rel.Insert(Atom("bob"), Int(42))
	rel.Insert(Str("weird name"), List(Int(1), Int(2)))
	rel.Insert(Var("X"), Atom("universal")) // non-ground fact survives

	path := filepath.Join(t.TempDir(), "emp.crl")
	if err := sys.SaveRelation(path, "emp", 2); err != nil {
		t.Fatal(err)
	}
	sys2 := New()
	if _, err := sys2.ConsultFile(path); err != nil {
		t.Fatal(err)
	}
	rel2, ok := sys2.LookupRelation("emp", 2)
	if !ok || rel2.Len() != rel.Len() {
		t.Fatalf("round trip: %v len %d vs %d", ok, rel2.Len(), rel.Len())
	}
	// Universal fact still answers arbitrary instances.
	ans, err := sys2.Query("emp(anything, universal)")
	if err != nil || len(ans.Tuples) != 1 {
		t.Fatalf("universal fact lost: %v %v", ans, err)
	}
	if err := sys.SaveRelation(path, "nosuch", 3); err == nil {
		t.Error("saving unknown relation succeeded")
	}
}

func TestTopLevelMakeIndexAnnotation(t *testing.T) {
	sys := New()
	if _, err := sys.Consult(`
		@make_index emp(Name, City) (City).
		emp(ann, madison). emp(bob, nyc). emp(cyd, madison).
		@make_index dept(D, addr(B, Floor)) (B, Floor).
		dept(eng, addr(hq, 3)).
	`); err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Query("emp(N, madison)")
	if err != nil || len(ans.Tuples) != 2 {
		t.Fatalf("indexed base query: %v %v", ans, err)
	}
	ans, err = sys.Query("dept(D, addr(hq, 3))")
	if err != nil || len(ans.Tuples) != 1 {
		t.Fatalf("pattern-indexed base query: %v %v", ans, err)
	}
}

func TestCallPipelinedModule(t *testing.T) {
	sys := New()
	if _, err := sys.Consult(`
		edge(1, 2). edge(2, 3).
		module m.
		export r(bf).
		@pipelining.
		r(X, Y) :- edge(X, Y).
		r(X, Y) :- edge(X, Z), r(Z, Y).
		end_module.
	`); err != nil {
		t.Fatal(err)
	}
	scan, err := sys.Call("r", Int(1), Var("Y"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := scan.All()
	if err != nil || len(rows) != 2 {
		t.Fatalf("pipelined call: %v %v", rows, err)
	}
	// Next after exhaustion stays exhausted.
	if _, ok := scan.Next(); ok {
		t.Error("scan revived after exhaustion")
	}
}

func TestScanErrorSurfaces(t *testing.T) {
	sys := New()
	if err := sys.RegisterPredicate("boom", 1, func(Tuple) ([]Tuple, error) {
		return nil, fmt.Errorf("deliberate failure")
	}); err != nil {
		t.Fatal(err)
	}
	scan, err := sys.Call("boom", Var("X"))
	if err != nil {
		// Acceptable: the error may surface at call time.
		return
	}
	_, ok := scan.Next()
	if ok || scan.Err() == nil {
		t.Fatalf("computed-relation failure not surfaced: ok=%v err=%v", ok, scan.Err())
	}
	if !strings.Contains(scan.Err().Error(), "deliberate failure") {
		t.Errorf("error text: %v", scan.Err())
	}
}

func TestAttachStorageTwice(t *testing.T) {
	sys := New()
	path := filepath.Join(t.TempDir(), "a.cdb")
	if err := sys.AttachStorage(path, 16); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachStorage(path, 16); err == nil {
		t.Error("double attach allowed")
	}
	if _, err := New().PersistentRelation("p", 1); err == nil {
		t.Error("persistent relation without storage allowed")
	}
}

func TestRegisterConflicts(t *testing.T) {
	sys := New()
	if _, err := sys.BaseRelation("p", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterPredicate("p", 1, func(Tuple) ([]Tuple, error) { return nil, nil }); err == nil {
		t.Error("registering over an existing base relation allowed")
	}
	if _, err := sys.Consult(`
		module m.
		export q(f).
		q(1).
		end_module.
	`); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterPredicate("q", 1, func(Tuple) ([]Tuple, error) { return nil, nil }); err == nil {
		t.Error("registering over a module export allowed")
	}
}

// customRange is a custom RelationImpl used through the public API only.
type customRange struct{ n int64 }

func (r customRange) Name() string     { return "upto" }
func (r customRange) Arity() int       { return 1 }
func (r customRange) Len() int         { return int(r.n) }
func (r customRange) Insert(Fact) bool { panic("read-only") }
func (r customRange) Snapshot() Mark   { return 0 }
func (r customRange) Scan() Iterator {
	facts := make([]Fact, r.n)
	for i := range facts {
		facts[i] = NewFact([]Term{Int(int64(i))})
	}
	return SliceIterator(facts)
}
func (r customRange) Lookup(pattern []Term, env *Env) Iterator {
	// TermIn lets implementations read bound arguments.
	if v := TermIn(pattern[0], env); IsGroundTerm(v) {
		return SliceIterator([]Fact{NewFact([]Term{v})})
	}
	return r.Scan()
}
func (r customRange) ScanRange(from, to Mark) Iterator {
	if from == 0 {
		return r.Scan()
	}
	return EmptyIterator()
}
func (r customRange) LookupRange(p []Term, e *Env, from, to Mark) Iterator {
	if from == 0 {
		return r.Lookup(p, e)
	}
	return EmptyIterator()
}

func TestCustomRelationImplPublicAPI(t *testing.T) {
	var _ RelationImpl = customRange{}
	sys := New()
	if err := sys.Register(customRange{n: 4}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(customRange{n: 4}); err == nil {
		t.Error("double register allowed")
	}
	ans, err := sys.Query("upto(X), X > 1")
	if err != nil || len(ans.Tuples) != 2 {
		t.Fatalf("custom relation query: %v %v", ans, err)
	}
	if sys.Engine() == nil {
		t.Error("Engine accessor nil")
	}
}

func TestBigIntConstructor(t *testing.T) {
	v, _ := new(big.Int).SetString("123456789012345678901234567890", 10)
	b := BigInt(v)
	sys := New()
	rel, err := sys.BaseRelation("huge", 1)
	if err != nil {
		t.Fatal(err)
	}
	rel.Insert(b)
	rows, err := rel.Scan().All()
	if err != nil || len(rows) != 1 || !Equal(rows[0][0], b) {
		t.Fatalf("bigint round trip: %v %v", rows, err)
	}
	ans, err := sys.Query("huge(X), X > 5")
	if err != nil || len(ans.Tuples) != 1 {
		t.Fatalf("bigint comparison: %v %v", ans, err)
	}
}

func TestRelationMakeIndexAPI(t *testing.T) {
	sys := New()
	rel, err := sys.BaseRelation("p", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rel.Insert(Int(int64(i)), Int(int64(i*2)))
	}
	if err := rel.MakeIndex(0); err != nil {
		t.Fatal(err)
	}
	rows, err := rel.Lookup(Int(42), Var("Y")).All()
	if err != nil || len(rows) != 1 || !Equal(rows[0][1], Int(84)) {
		t.Fatalf("indexed lookup: %v %v", rows, err)
	}
	// MakeIndex on a non-hash relation errors.
	sys.Register(customRange{n: 2})
	cr, _ := sys.LookupRelation("upto", 1)
	if err := cr.MakeIndex(0); err == nil {
		t.Error("MakeIndex on custom relation allowed")
	}
	if err := cr.MakePatternIndex("upto(X)", "X"); err == nil {
		t.Error("MakePatternIndex on custom relation allowed")
	}
	if _, err := cr.Delete(Int(0)); err == nil {
		t.Error("Delete on non-deleter allowed")
	}
}

// TestPointQueryAllocBudget is the tripwire for per-call set-up creeping
// back into the request path. The shape is what bench/'s serve workloads
// query — one 4-node circulant component of edge/2 (i → i+1, i+2), the index
// a read-only session cannot build for itself, and the tc module — so a
// bound tc(c, X) is a four-answer fixpoint and nearly every allocation it
// makes is fixed cost (parse, View, magic seed, round schedule, plan
// choice). Allocations repeat exactly — 341 when the round schedule and the
// plan memo went in (EXPERIMENTS.md E25), 463 before — and the ceiling is
// 10 % above that: re-adding per-round maps or a per-call clone-and-compile
// of the planned rules goes well past it.
func TestPointQueryAllocBudget(t *testing.T) {
	const ceiling = 375
	var src strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&src, "edge(%d, %d). edge(%d, %d).\n", i, (i+1)%4, i, (i+2)%4)
	}
	src.WriteString(`@make_index edge(X, Y) (X).
		module tc.
		export tc(bf, ff).
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- edge(X, Z), tc(Z, Y).
		end_module.`)
	sys := New()
	if _, err := sys.Consult(src.String()); err != nil {
		t.Fatal(err)
	}
	se := sys.NewSession()
	query := func() {
		ans, err := se.Query(context.Background(), "tc(0, X)")
		if err != nil || len(ans.Tuples) != 4 {
			t.Fatalf("tc(0, X): %v, %v", ans, err)
		}
	}
	query() // warm the query form's plan memo
	if got := testing.AllocsPerRun(200, query); got > ceiling {
		t.Errorf("Session.Query(tc(0, X)) allocates %.0f objects, budget %d", got, ceiling)
	}
}

// TestSaveModuleSeesAppends: a saved evaluation is reused only while the
// base relations it read are unchanged. Consulting a new edge discards it,
// so the next call answers as a module without @save_module would.
func TestSaveModuleSeesAppends(t *testing.T) {
	sys := New()
	if _, err := sys.Consult(`
		edge(0, 1). edge(1, 2).
		module tc.
		export tc(bf).
		@save_module.
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- edge(X, Z), tc(Z, Y).
		end_module.
	`); err != nil {
		t.Fatal(err)
	}
	if got := answersOf(t, sys, "tc(0, Y)"); len(got) != 2 {
		t.Fatalf("tc(0, Y) before the load: %v", got)
	}
	if _, err := sys.Consult("edge(2, 3)."); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(answersOf(t, sys, "tc(0, Y)"), " "), "(1) (2) (3)"; got != want {
		t.Errorf("tc(0, Y) after consulting edge(2, 3): %s, want %s", got, want)
	}
}

// TestSaveModuleSeesNegatedAppends: an append to a relation read under "not"
// can take answers away, so it too discards the saved evaluation.
func TestSaveModuleSeesNegatedAppends(t *testing.T) {
	sys := New()
	if _, err := sys.Consult(`
		a(1). a(2).
		module m.
		export p(f).
		@save_module.
		p(X) :- a(X), not b(X).
		end_module.
	`); err != nil {
		t.Fatal(err)
	}
	if got := answersOf(t, sys, "p(X)"); len(got) != 2 {
		t.Fatalf("p(X) before the load: %v", got)
	}
	if _, err := sys.Consult("b(1)."); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(answersOf(t, sys, "p(X)"), " "), "(2)"; got != want {
		t.Errorf("p(X) after consulting b(1): %s, want %s", got, want)
	}
}
