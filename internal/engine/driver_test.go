package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// The nested-loops driver (evaluator.run) is shared by every evaluation the
// engine performs, the reference evaluator included, so the differential
// suites cannot see an error in it. These tests hold it to semantics written
// out in the test itself.

// crossProduct answers a conjunctive body the obviously right way: one plain
// loop per literal over the relation's facts in insertion order, nested in
// body order, keeping a combination when every literal agrees with the
// values chosen so far. It returns the head instantiations in enumeration
// order — one per solution of the body, duplicates included.
func crossProduct(rels map[string][][]int64, head []*term.Var, body []ast.Literal) []string {
	var out []string
	val := make(map[*term.Var]int64)
	arg := func(t term.Term) (int64, bool) {
		if v, isVar := t.(*term.Var); isVar {
			x, bound := val[v]
			return x, bound
		}
		return int64(t.(term.Int)), true
	}
	var loop func(i int)
	loop = func(i int) {
		if i == len(body) {
			row := make([]string, len(head))
			for k, v := range head {
				row[k] = fmt.Sprint(val[v])
			}
			out = append(out, "("+strings.Join(row, ", ")+")")
			return
		}
		l := body[i]
		if l.Builtin() { // a comparison over bound variables
			a, _ := arg(l.Args[0])
			b, _ := arg(l.Args[1])
			if (l.Pred == "<" && a < b) || (l.Pred == "!=" && a != b) {
				loop(i + 1)
			}
			return
		}
		// unify binds the literal's unbound variables to the row's values; it
		// reports them, or false — having bound nothing — on a disagreement.
		undo := func(fresh []*term.Var) {
			for _, v := range fresh {
				delete(val, v)
			}
		}
		unify := func(row []int64) (fresh []*term.Var, ok bool) {
			for k, t := range l.Args {
				if x, bound := arg(t); !bound {
					val[t.(*term.Var)] = row[k]
					fresh = append(fresh, t.(*term.Var))
				} else if x != row[k] {
					undo(fresh)
					return nil, false
				}
			}
			return fresh, true
		}
		for _, row := range rels[l.Pred] {
			fresh, ok := unify(row)
			if !ok {
				continue
			}
			if l.Neg { // ground (so fresh is empty): one matching row refutes it
				return
			}
			loop(i + 1)
			undo(fresh)
		}
		if l.Neg {
			loop(i + 1)
		}
	}
	loop(0)
	return out
}

// randomBody draws a conjunctive body over r0/2, r1/2 and r2/1: two to four
// relation literals whose arguments are drawn from four variables (so
// literals share variables, and a literal may repeat one) and the odd
// constant, then possibly a comparison and a negation over variables the
// relation literals bind, each placed anywhere behind the last literal it
// depends on. The head lists the body's variables in order of first
// occurrence.
func randomBody(rng *rand.Rand) (head []*term.Var, body []ast.Literal) {
	vars := []*term.Var{term.NewVar("A"), term.NewVar("B"), term.NewVar("C"), term.NewVar("D")}
	arity := map[string]int{"r0": 2, "r1": 2, "r2": 1}
	seen := make(map[*term.Var]bool)
	for n := 2 + rng.Intn(3); n > 0; n-- {
		l := ast.Literal{Pred: fmt.Sprintf("r%d", rng.Intn(3))}
		for k := 0; k < arity[l.Pred]; k++ {
			if rng.Intn(6) == 0 {
				l.Args = append(l.Args, term.Int(int64(rng.Intn(4))))
				continue
			}
			v := vars[rng.Intn(len(vars))]
			if !seen[v] {
				seen[v] = true
				head = append(head, v)
			}
			l.Args = append(l.Args, v)
		}
		body = append(body, l)
	}
	if len(head) == 0 {
		return randomBody(rng)
	}
	// boundBy is the body position of the relation literal that first binds v.
	boundBy := func(v *term.Var) int {
		for i, l := range body {
			for _, t := range l.Args {
				if t == term.Term(v) && !l.Builtin() && !l.Neg {
					return i
				}
			}
		}
		panic("head variable not in the body")
	}
	// extra places a literal over two bound variables behind both bindings.
	extra := func(pred string, neg bool) {
		a, b := head[rng.Intn(len(head))], head[rng.Intn(len(head))]
		pos := max(boundBy(a), boundBy(b)) + 1
		pos += rng.Intn(len(body) - pos + 1)
		l := ast.Literal{Pred: pred, Neg: neg, Args: []term.Term{a, b}}
		body = append(body[:pos], append([]ast.Literal{l}, body[pos:]...)...)
	}
	if rng.Intn(2) == 0 {
		extra([]string{"<", "!="}[rng.Intn(2)], false)
	}
	if rng.Intn(2) == 0 {
		extra("r0", true)
	}
	return head, body
}

// TestDriverAgainstCrossProduct: seeded random conjunctive bodies over three
// tiny relations, answered by the nested loops above and by the driver under
// both binding stores, with and without intelligent backtracking. The
// emitted head sequence and the derivation count must be the loops' —
// backjumping may skip work, never a solution, and never reorder one.
func TestDriverAgainstCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 300; round++ {
		rels := make(map[string][][]int64)
		st := newStore(func(k ast.PredKey) (Source, error) {
			return nil, fmt.Errorf("no external source for %v", k)
		}, nil)
		for name, arity := range map[string]int{"r0": 2, "r1": 2, "r2": 1} {
			hr := st.rel(ast.PredKey{Name: name, Arity: arity})
			for k := rng.Intn(7); k > 0; k-- {
				row := make([]int64, arity)
				args := make([]term.Term, arity)
				for j := range row {
					row[j] = int64(rng.Intn(4))
					args[j] = term.Int(row[j])
				}
				if hr.Insert(relation.GroundFact(args...)) {
					rels[name] = append(rels[name], row)
				}
			}
		}
		head, body := randomBody(rng)
		headArgs := make([]term.Term, len(head))
		for i, v := range head {
			headArgs[i] = v
		}
		rule := &ast.Rule{Head: ast.Literal{Pred: "q", Args: headArgs}, Body: body}
		want := crossProduct(rels, head, body)
		for _, regs := range []bool{false, true} {
			for _, ib := range []bool{false, true} {
				c, err := CompileRule(rule, func(ast.PredKey) bool { return false })
				if err != nil {
					t.Fatalf("%s: %v", rule, err)
				}
				ev := &evaluator{evalConfig: evalConfig{st: st, IntelligentBacktracking: ib, bytecode: regs}}
				var got []string
				if err := ev.evalRule(c, &fullRanges, func(f Fact) bool {
					got = append(got, f.String())
					return true
				}); err != nil {
					t.Fatalf("%s: %v", rule, err)
				}
				if regs != (ev.BCRuns == 1) {
					t.Fatalf("%s: register store wanted=%v, BCRuns=%d", rule, regs, ev.BCRuns)
				}
				if !sameStrings(got, want) || ev.Derivations != len(want) {
					t.Fatalf("%s\nrelations %v\nregisters=%v backjumping=%v\ndriver (%d derivations): %v\nloops: %v",
						rule, rels, regs, ib, ev.Derivations, got, want)
				}
			}
		}
	}
}

// TestEvalRuleReentrant: an emit callback that applies another rule on the
// same evaluator — whose pooled frames, stores and trail are live — gets
// scratch state, and both applications come out whole.
func TestEvalRuleReentrant(t *testing.T) {
	eKey := ast.PredKey{Name: "e", Arity: 1}
	st := newStore(func(k ast.PredKey) (Source, error) {
		return nil, fmt.Errorf("no external source for %v", k)
	}, nil)
	for i := int64(1); i <= 3; i++ {
		st.rel(eKey).Insert(relation.GroundFact(term.Int(i)))
	}
	x, y := term.NewVar("X"), term.NewVar("Y")
	c, err := CompileRule(&ast.Rule{
		Head: ast.Literal{Pred: "q", Args: []term.Term{x, y}},
		Body: []ast.Literal{{Pred: "e", Args: []term.Term{x}}, {Pred: "e", Args: []term.Term{y}}},
	}, func(ast.PredKey) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	for _, regs := range []bool{false, true} {
		ev := &evaluator{evalConfig: evalConfig{st: st, bytecode: regs}}
		outer, inner := 0, 0
		err := ev.evalRule(c, &fullRanges, func(Fact) bool {
			outer++
			if err := ev.evalRule(c, &fullRanges, func(Fact) bool { inner++; return true }); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if err != nil || outer != 9 || inner != 81 || ev.Derivations != 90 {
			t.Errorf("registers=%v: %d outer and %d inner derivations (%d counted), err %v; want 9, 81, 90",
				regs, outer, inner, ev.Derivations, err)
		}
	}
}
