package relation

import (
	"fmt"
	"testing"

	"coral/internal/term"
)

func atom(s string) term.Term { return term.Atom(s) }

func fact(args ...term.Term) Fact { return NewFact(args, nil) }

func edgeRel(t *testing.T, n int) *HashRelation {
	t.Helper()
	r := NewHashRelation("edge", 2)
	for i := 0; i < n; i++ {
		if !r.Insert(fact(term.Int(i), term.Int(i+1))) {
			t.Fatalf("insert edge(%d,%d) rejected", i, i+1)
		}
	}
	return r
}

func TestHashRelationBasics(t *testing.T) {
	r := edgeRel(t, 3)
	if r.Len() != 3 || r.Name() != "edge" || r.Arity() != 2 {
		t.Fatalf("Len/Name/Arity wrong: %d %s %d", r.Len(), r.Name(), r.Arity())
	}
	if got := len(Drain(r.Scan())); got != 3 {
		t.Errorf("scan yielded %d facts", got)
	}
	// Duplicate rejected.
	if r.Insert(fact(term.Int(0), term.Int(1))) {
		t.Error("duplicate accepted")
	}
	if r.Len() != 3 {
		t.Error("Len changed on duplicate")
	}
	if r.InsertAttempts() != 4 {
		t.Errorf("InsertAttempts = %d, want 4", r.InsertAttempts())
	}
}

func TestHashRelationArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	NewHashRelation("p", 2).Insert(fact(term.Int(1)))
}

func TestMultisetSemantics(t *testing.T) {
	r := NewHashRelation("p", 1)
	r.Multiset = true
	r.Insert(fact(term.Int(1)))
	if !r.Insert(fact(term.Int(1))) {
		t.Error("multiset rejected duplicate")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestMarksAndRanges(t *testing.T) {
	r := NewHashRelation("p", 1)
	r.Insert(fact(term.Int(1)))
	m1 := r.Snapshot()
	r.Insert(fact(term.Int(2)))
	r.Insert(fact(term.Int(3)))
	m2 := r.Snapshot()
	r.Insert(fact(term.Int(4)))

	old := Drain(r.ScanRange(0, m1))
	delta := Drain(r.ScanRange(m1, m2))
	tail := Drain(r.ScanRange(m2, r.Snapshot()))
	if len(old) != 1 || len(delta) != 2 || len(tail) != 1 {
		t.Fatalf("ranges: %d %d %d, want 1 2 1", len(old), len(delta), len(tail))
	}
	if !term.Equal(delta[0].Args[0], term.Int(2)) || !term.Equal(delta[1].Args[0], term.Int(3)) {
		t.Error("delta contents wrong")
	}
	// Union of ranges equals full scan (segment property).
	all := Drain(r.Scan())
	if len(all) != len(old)+len(delta)+len(tail) {
		t.Error("ranges do not partition the relation")
	}
}

func TestDelete(t *testing.T) {
	r := edgeRel(t, 5)
	// Delete edges starting at 2.
	n := r.Delete([]term.Term{term.Int(2), term.NewVar("X")}, nil)
	if n != 1 || r.Len() != 4 {
		t.Fatalf("deleted %d, len %d", n, r.Len())
	}
	for _, f := range Drain(r.Scan()) {
		if term.Equal(f.Args[0], term.Int(2)) {
			t.Error("deleted fact still visible in scan")
		}
	}
	// Deleted fact can be reinserted.
	if !r.Insert(fact(term.Int(2), term.Int(3))) {
		t.Error("reinsert after delete rejected")
	}
}

func TestArgIndexLookup(t *testing.T) {
	r := edgeRel(t, 100)
	r.MakeIndex(0)
	if !r.HasIndex(0) || r.HasIndex(1) {
		t.Fatal("HasIndex wrong")
	}
	it := r.Lookup([]term.Term{term.Int(42), term.NewVar("Y")}, nil)
	got := Drain(it)
	if len(got) != 1 || !term.Equal(got[0].Args[1], term.Int(43)) {
		t.Fatalf("indexed lookup got %v", got)
	}
	// Unbound indexed position degrades to scan but stays correct.
	all := Drain(r.Lookup([]term.Term{term.NewVar("X"), term.NewVar("Y")}, nil))
	if len(all) != 100 {
		t.Errorf("free lookup got %d facts", len(all))
	}
}

func TestArgIndexAddedLate(t *testing.T) {
	r := edgeRel(t, 10)
	r.MakeIndex(1) // added after facts exist: must index existing facts
	got := Drain(r.Lookup([]term.Term{term.NewVar("X"), term.Int(5)}, nil))
	if len(got) != 1 || !term.Equal(got[0].Args[0], term.Int(4)) {
		t.Fatalf("late index lookup got %v", got)
	}
	r.MakeIndex(1) // duplicate definition is a no-op
}

func TestArgIndexVarBucket(t *testing.T) {
	r := NewHashRelation("p", 2)
	r.MakeIndex(0)
	r.Insert(fact(atom("a"), term.Int(1)))
	// Non-ground fact at the indexed position goes to the var bucket and is
	// returned on every lookup.
	x := term.NewVar("X")
	r.Insert(NewFact([]term.Term{x, term.Int(2)}, nil))
	got := Drain(r.Lookup([]term.Term{atom("a"), term.NewVar("V")}, nil))
	if len(got) != 2 {
		t.Fatalf("lookup missed var-bucket fact: got %d", len(got))
	}
	got = Drain(r.Lookup([]term.Term{atom("zzz"), term.NewVar("V")}, nil))
	if len(got) != 1 || got[0].NVars != 1 {
		t.Fatalf("lookup of absent key should yield only var-bucket fact, got %v", got)
	}
}

func TestIndexRangeRestriction(t *testing.T) {
	r := NewHashRelation("p", 1)
	r.MakeIndex(0)
	r.Insert(fact(atom("k")))
	m := r.Snapshot()
	r.Insert(fact(atom("k2")))
	// Same key inserted again is a dup; insert different fact with same hash
	// bucket is fine. Look up "k" restricted to after m: nothing.
	got := Drain(r.LookupRange([]term.Term{atom("k")}, nil, m, r.Snapshot()))
	if len(got) != 0 {
		t.Errorf("range-restricted lookup leaked old facts: %v", got)
	}
	got = Drain(r.LookupRange([]term.Term{atom("k")}, nil, 0, m))
	if len(got) != 1 {
		t.Errorf("range-restricted lookup lost facts: %v", got)
	}
}

func TestIndexLookupUnderEnv(t *testing.T) {
	r := edgeRel(t, 10)
	r.MakeIndex(0)
	// Pattern var bound through an environment must key the index.
	env := term.NewEnv(1)
	var tr term.Trail
	x := &term.Var{Name: "X", Index: 0}
	term.Bind(x, env, term.Int(7), nil, &tr)
	got := Drain(r.Lookup([]term.Term{x, term.NewVar("Y")}, env))
	if len(got) != 1 || !term.Equal(got[0].Args[1], term.Int(8)) {
		t.Fatalf("env-bound lookup got %v", got)
	}
}

func TestPatternIndex(t *testing.T) {
	r := NewHashRelation("emp", 2)
	// @make_index emp(Name, addr(Street, City))(Name, City).
	pat := []term.Term{
		term.NewVar("Name"),
		term.NewFunctor("addr", term.NewVar("Street"), term.NewVar("City")),
	}
	r.MakePatternIndex(pat, []string{"Name", "City"})
	for i := 0; i < 50; i++ {
		city := atom(fmt.Sprintf("city%d", i%7))
		street := atom(fmt.Sprintf("street%d", i))
		name := atom(fmt.Sprintf("name%d", i%10))
		r.Insert(fact(name, term.NewFunctor("addr", street, city)))
	}
	// Retrieve name5 in city5 without knowing the street: only i=5
	// satisfies i%10==5 && i%7==5.
	q := []term.Term{atom("name5"), term.NewFunctor("addr", term.NewVar("S"), atom("city5"))}
	got := Drain(r.Lookup(q, nil))
	if len(got) != 1 {
		t.Fatalf("pattern index lookup got %d facts, want 1", len(got))
	}
	if !term.Equal(got[0].Args[0], atom("name5")) {
		t.Errorf("wrong fact: %v", got[0])
	}
}

func TestPatternIndexOverflow(t *testing.T) {
	r := NewHashRelation("emp", 2)
	pat := []term.Term{
		term.NewVar("Name"),
		term.NewFunctor("addr", term.NewVar("Street"), term.NewVar("City")),
	}
	r.MakePatternIndex(pat, []string{"Name", "City"})
	// A fact not matching the pattern goes to overflow and is returned on
	// every indexed lookup.
	r.Insert(fact(atom("odd"), atom("noaddr")))
	r.Insert(fact(atom("n"), term.NewFunctor("addr", atom("s"), atom("c"))))
	q := []term.Term{atom("n"), term.NewFunctor("addr", term.NewVar("S"), atom("c"))}
	got := Drain(r.Lookup(q, nil))
	if len(got) != 2 {
		t.Fatalf("overflow fact not returned: got %d", len(got))
	}
	// A query the pattern cannot key falls back to a scan.
	got = Drain(r.Lookup([]term.Term{term.NewVar("N"), term.NewVar("A")}, nil))
	if len(got) != 2 {
		t.Errorf("fallback scan got %d", len(got))
	}
}

func TestSubsumptionChecks(t *testing.T) {
	r := NewHashRelation("p", 2)
	x := term.NewVar("X")
	// Insert the general fact p(X, b).
	if !r.Insert(NewFact([]term.Term{x, atom("b")}, nil)) {
		t.Fatal("general fact rejected")
	}
	// Instances are subsumed.
	if r.Insert(fact(atom("a"), atom("b"))) {
		t.Error("subsumed instance accepted")
	}
	// A variant is a duplicate.
	if r.Insert(NewFact([]term.Term{term.NewVar("Y"), atom("b")}, nil)) {
		t.Error("variant accepted")
	}
	// A non-instance is accepted.
	if !r.Insert(fact(atom("a"), atom("c"))) {
		t.Error("non-instance rejected")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestAggSelMin(t *testing.T) {
	r := NewHashRelation("path", 3) // path(X, Y, Cost)
	r.AddAggSel(&AggSel{GroupPos: []int{0, 1}, Op: AggMin, ValuePos: 2})
	if !r.Insert(fact(atom("a"), atom("b"), term.Int(10))) {
		t.Fatal("first fact rejected")
	}
	// Costlier fact discarded.
	if r.Insert(fact(atom("a"), atom("b"), term.Int(12))) {
		t.Error("costlier fact accepted")
	}
	// Cheaper fact replaces: old fact deleted.
	if !r.Insert(fact(atom("a"), atom("b"), term.Int(7))) {
		t.Fatal("cheaper fact rejected")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (stale fact not deleted)", r.Len())
	}
	got := Drain(r.Scan())
	if !term.Equal(got[0].Args[2], term.Int(7)) {
		t.Errorf("kept fact has cost %v", got[0].Args[2])
	}
	// Different group is independent.
	if !r.Insert(fact(atom("a"), atom("c"), term.Int(100))) {
		t.Error("different group rejected")
	}
}

func TestAggSelKeepsEqualCostTies(t *testing.T) {
	// Without an any() selection, distinct facts of equal cost in the same
	// group are all retained.
	r := NewHashRelation("path", 4)
	r.AddAggSel(&AggSel{GroupPos: []int{0, 1}, Op: AggMin, ValuePos: 3})
	if !r.Insert(fact(atom("a"), atom("b"), atom("via1"), term.Int(5))) {
		t.Fatal("first tie rejected")
	}
	if !r.Insert(fact(atom("a"), atom("b"), atom("via2"), term.Int(5))) {
		t.Fatal("equal-cost tie rejected")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestAggSelMinTiesAndAny(t *testing.T) {
	// path(X, Y, P, C) with min(C) over (X,Y) and any(P) over (X,Y,C) — the
	// exact pair of annotations from the paper's shortest-path program.
	r := NewHashRelation("path", 4)
	r.AddAggSel(&AggSel{GroupPos: []int{0, 1}, Op: AggMin, ValuePos: 3})
	r.AddAggSel(&AggSel{GroupPos: []int{0, 1, 3}, Op: AggAny, ValuePos: 2})
	p1 := term.MakeList(atom("e1"))
	p2 := term.MakeList(atom("e2"))
	if !r.Insert(fact(atom("a"), atom("b"), p1, term.Int(5))) {
		t.Fatal("first path rejected")
	}
	// Equal cost, different witness path: any() rejects it.
	if r.Insert(fact(atom("a"), atom("b"), p2, term.Int(5))) {
		t.Error("second equal-cost path accepted despite any()")
	}
	// Cheaper path replaces.
	if !r.Insert(fact(atom("a"), atom("b"), p2, term.Int(3))) {
		t.Fatal("cheaper path rejected")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestAggSelMax(t *testing.T) {
	r := NewHashRelation("best", 2)
	r.AddAggSel(&AggSel{GroupPos: []int{0}, Op: AggMax, ValuePos: 1})
	r.Insert(fact(atom("g"), term.Int(1)))
	if r.Insert(fact(atom("g"), term.Int(0))) {
		t.Error("smaller value accepted under max")
	}
	if !r.Insert(fact(atom("g"), term.Int(9))) {
		t.Error("larger value rejected under max")
	}
	got := Drain(r.Scan())
	if len(got) != 1 || !term.Equal(got[0].Args[1], term.Int(9)) {
		t.Errorf("kept %v", got)
	}
}

func TestClear(t *testing.T) {
	r := edgeRel(t, 5)
	r.MakeIndex(0)
	r.Clear()
	if r.Len() != 0 || len(Drain(r.Scan())) != 0 {
		t.Error("Clear left facts behind")
	}
	// Index still works after clear.
	r.Insert(fact(term.Int(1), term.Int(2)))
	got := Drain(r.Lookup([]term.Term{term.Int(1), term.NewVar("X")}, nil))
	if len(got) != 1 {
		t.Error("index broken after Clear")
	}
}

func TestComputedRelation(t *testing.T) {
	// between(X) generating integers 0..4.
	r := NewComputed("gen", 1, func(pattern []term.Term, env *term.Env) Iterator {
		var facts []Fact
		for i := 0; i < 5; i++ {
			facts = append(facts, GroundFact(term.Int(i)))
		}
		return SliceIterator(facts)
	})
	if r.Name() != "gen" || r.Arity() != 1 || r.Len() != 0 {
		t.Error("metadata wrong")
	}
	if n := len(Drain(r.Scan())); n != 5 {
		t.Errorf("scan got %d", n)
	}
	if n := len(Drain(r.ScanRange(0, 0))); n != 5 {
		t.Errorf("initial range got %d", n)
	}
	if n := len(Drain(r.ScanRange(1, 2))); n != 0 {
		t.Errorf("delta range got %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("insert into computed did not panic")
		}
	}()
	r.Insert(fact(term.Int(0)))
}

func TestRelationInterfaces(t *testing.T) {
	var _ Relation = NewHashRelation("a", 1)
	var _ Relation = NewComputed("c", 1, nil)
	var _ Deleter = NewHashRelation("a", 1)
}
