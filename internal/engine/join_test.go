package engine

import (
	"fmt"
	"testing"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// TestRunBuiltinFailureTrailDiscipline pins the trail invariant behind the
// single-undo builtin failure path in run(): a "=" that binds subterms
// before failing leaves partial bindings on the trail, and the next frame's
// entry undo — not a second undo on the failure path — must remove them.
// The rule q(X) :- e(X), f(Z, X) = f(X, 2) fails the builtin for X ≠ 2
// (after binding Z), so by emit time for X = 2 the trail must hold exactly
// the live activation's two bindings (X and Z) and nothing leaked from the
// failed candidates.
func TestRunBuiltinFailureTrailDiscipline(t *testing.T) {
	eKey := ast.PredKey{Name: "e", Arity: 1}
	st := newStore(func(k ast.PredKey) (Source, error) {
		return nil, fmt.Errorf("no external source for %v", k)
	}, nil)
	for i := int64(1); i <= 3; i++ {
		st.rel(eKey).Insert(relation.GroundFact(term.Int(i)))
	}

	x := &term.Var{Name: "X", Index: 0}
	z := &term.Var{Name: "Z", Index: 1}
	c := &Compiled{
		HeadPred: ast.PredKey{Name: "q", Arity: 1},
		HeadArgs: []term.Term{x},
		NVars:    2,
		Body: []CItem{
			{Kind: ItemRel, Pred: eKey, Args: []term.Term{x}, BacktrackTo: -1, OrigPos: 0},
			{Kind: ItemBuiltin, Op: "=",
				Args: []term.Term{
					term.NewFunctor("f", z, x),
					term.NewFunctor("f", x, term.Int(2)),
				},
				BacktrackTo: 0, OrigPos: 1},
		},
	}

	ev := &evaluator{evalConfig: evalConfig{st: st}}
	var got []string
	err := ev.evalRule(c, &fullRanges, func(f Fact) bool {
		if mark := ev.tr.Mark(); mark != 2 {
			t.Errorf("trail holds %d bindings at emit, want 2 (X and Z of the live activation)", mark)
		}
		got = append(got, f.String())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "(2)" {
		t.Fatalf("answers = %v, want [(2)]", got)
	}
	if mark := ev.tr.Mark(); mark != 0 {
		t.Fatalf("trail holds %d bindings after evalRule, want 0", mark)
	}
}
