package engine

import (
	"testing"

	"coral/internal/term"
)

// modeSafe reports whether every builtin and negation in the body has all
// of its variables bound by the relation literals (plus "=" propagation)
// scheduled before it — the planner's mode-safety invariant.
func modeSafe(body []CItem) bool {
	bound := make(map[int]bool)
	for i := range body {
		it := &body[i]
		if it.Kind == ItemNegRel || (it.Kind == ItemBuiltin && it.Op != "=") {
			if !slotsSubset(slotsOf(it.Args), bound) {
				return false
			}
		}
		bindSlots(it, bound)
	}
	return true
}

// plannedRule compiles src, builds a matEval for the module's query form,
// and returns the written rule for head pred together with its plan.
func plannedRule(t *testing.T, src, form, head string, delta int) (*Compiled, *Compiled) {
	t.Helper()
	sys := buildSystem(t, src)
	def, ok := sys.Module("m")
	if !ok {
		t.Fatal("module m not installed")
	}
	prog, ok := def.Programs()[form]
	if !ok {
		t.Fatalf("no program for %s (have %v)", form, def.Programs())
	}
	me := newMatEval(prog, liveExternal(sys))
	me.planning = true // the planner alone, live statistics only
	for _, st := range prog.Strata {
		rules := append([]*Compiled{}, st.ExitRules...)
		if delta >= 0 {
			// A delta position only makes sense for a recursive rule.
			rules = st.RecRules
		}
		for _, c := range rules {
			if c.HeadPred.Name == head {
				return c, me.planFor(c, delta)
			}
		}
	}
	t.Fatalf("no compiled rule with head %s", head)
	return nil, nil
}

// TestPlannerReordersCrossProduct checks that the planner actually
// reorders a cross-product-shaped body and that the plan is mode-safe and
// a permutation of the written body.
func TestPlannerReordersCrossProduct(t *testing.T) {
	src := crossProductFacts(40) + `
module m.
export q(ff).
@rewrite none.
q(X, W) :- big1(X, Y), big2(Z, W), link(Y, Z).
end_module.
`
	c, planned := plannedRule(t, src, "q/ff", "q", -1)
	if planned == c {
		t.Fatal("planner left the cross-product rule in written order")
	}
	if len(planned.Body) != len(c.Body) {
		t.Fatalf("planned body has %d items, want %d", len(planned.Body), len(c.Body))
	}
	// The plan must be a permutation preserving OrigPos (the semi-naive
	// range discipline keys off the written position).
	seen := make(map[int]bool)
	for i := range planned.Body {
		seen[planned.Body[i].OrigPos] = true
	}
	for i := range c.Body {
		if !seen[i] {
			t.Errorf("written position %d missing from plan", i)
		}
	}
	// link must not run second: after one literal only one of Y, Z can be
	// bound, so scheduling link(Y, Z) second would itself be the cross
	// product the planner exists to avoid... unless the planner chose link
	// first, which is fine (it is the smallest relation). What must never
	// happen is big1 directly followed by big2 (or vice versa).
	first, second := planned.Body[0].Pred.Name, planned.Body[1].Pred.Name
	if (first == "big1" && second == "big2") || (first == "big2" && second == "big1") {
		t.Errorf("planned order still joins %s × %s first", first, second)
	}
	if !modeSafe(planned.Body) {
		t.Errorf("planned body is not mode-safe: %+v", planned.Body)
	}
}

// TestPlannerModeSafety checks that builtins and negations are scheduled
// only after their variables are bound, even when the planner reorders the
// relation literals around them.
func TestPlannerModeSafety(t *testing.T) {
	src := crossProductFacts(40) + `
excl(v0). excl(v1).
module m.
export q(ff).
@rewrite none.
q(X, W) :- big1(X, Y), big2(Z, W), link(Y, Z), not excl(W), W != v2.
end_module.
`
	c, planned := plannedRule(t, src, "q/ff", "q", -1)
	if planned == c {
		t.Fatal("planner left the rule in written order")
	}
	if !modeSafe(planned.Body) {
		order := make([]string, len(planned.Body))
		for i := range planned.Body {
			order[i] = planned.Body[i].Pred.Name + planned.Body[i].Op
		}
		t.Errorf("planned body is not mode-safe: %v", order)
	}
}

// TestPlannerFallsBackOnUnsafeWrittenOrder: a rule whose written order
// reaches a comparison with unbound operands must be left untouched — the
// written behavior (a groundness throw) is the semantics.
func TestPlannerFallsBackOnUnsafeWrittenOrder(t *testing.T) {
	src := `
p(1). p(2).
module m.
export q(ff).
@rewrite none.
q(X, Y) :- X < Y, p(X), p(Y).
end_module.
`
	c, planned := plannedRule(t, src, "q/ff", "q", -1)
	if planned != c {
		t.Error("planner reordered a rule whose written order throws on unbound comparison")
	}
}

// TestPlannerFallsBackOnSymbolicEquals: "=" with an arithmetic-shaped side
// that is unbound as written unifies symbolically; evaluating it after its
// variables are bound would change answers, so the planner must keep the
// written order.
func TestPlannerFallsBackOnSymbolicEquals(t *testing.T) {
	src := `
p(1). p(2).
module m.
export q(f).
@rewrite none.
q(Y) :- Y = X + 1, p(X).
end_module.
`
	c, planned := plannedRule(t, src, "q/f", "q", -1)
	if planned != c {
		t.Error("planner reordered a rule with a symbolically-unifying '='")
	}
}

// TestPlannerKeepsNumericEqualsMode: as written, X = N + 0 binds X to an
// Int before one(X) is scanned, so one(2.0) never matches; scanning the
// one-row one(X) first — the greedy choice — would turn the "=" into a
// numeric test that 2.0 = 2 passes. The planner must keep the written
// order, and the engine must agree with the written-order reference.
func TestPlannerKeepsNumericEqualsMode(t *testing.T) {
	src := crossProductFacts(40) + `
one(2.0).
n(1). n(2). n(3). n(4). n(5). n(6). n(7). n(8).
module m.
export q(f).
@rewrite none.
q(X) :- n(N), X = N + 0, one(X).
end_module.
`
	c, planned := plannedRule(t, src, "q/f", "q", -1)
	if planned != c {
		t.Error("planner turned a binding '=' into a numeric test")
	}
	if got := diffGoal(t, src, "q(X)"); len(got) != 0 {
		t.Errorf("answers %v, want none", got)
	}
}

// TestPlannerDeltaSeedsPlan: for a recursive rule version the delta
// literal must be scheduled first — its [Last, Now) range is the smallest
// scan.
func TestPlannerDeltaSeedsPlan(t *testing.T) {
	src := crossProductFacts(40) + `
module m.
export r(ff).
@rewrite none.
r(X, Y) :- link(X, Y).
r(X, W) :- big1(X, Y), r(Y, Z), link(Z, W).
end_module.
`
	delta := 1 // r(Y, Z) is the recursive literal at written position 1
	_, planned := plannedRule(t, src, "r/ff", "r", delta)
	if len(planned.Body) == 0 || planned.Body[0].OrigPos != delta {
		t.Fatalf("delta literal not scheduled first: %+v", planned.Body)
	}
}

// crossProductFacts emits big1/2, big2/2 (n rows each, disjoint value
// spaces) and a small link/2 connecting them — the shape where the written
// order big1 × big2 is quadratic and the planned order is linear.
func crossProductFacts(n int) string {
	var b []byte
	num := func(i int) string {
		s := ""
		for i >= 10 {
			s = string(rune('0'+i%10)) + s
			i /= 10
		}
		return string(rune('0'+i)) + s
	}
	for i := 0; i < n; i++ {
		b = append(b, "big1(a"+num(i)+", b"+num(i)+").\n"...)
		b = append(b, "big2(c"+num(i)+", v"+num(i%4)+").\n"...)
	}
	for i := 0; i < n; i += 8 {
		b = append(b, "link(b"+num(i)+", c"+num(i)+").\n"...)
	}
	return string(b)
}

// TestPlannerFasterOnCrossProduct is the deterministic CI gate behind
// EXPERIMENTS.md E17: on the cross-product workload the planned order
// must attempt strictly fewer tuples than the written order (the reference
// evaluator) — by a wide margin, since written is O(n²) and planned is O(n).
func TestPlannerFasterOnCrossProduct(t *testing.T) {
	src := crossProductFacts(160) + `
module m.
export q(ff).
@rewrite none.
q(X, W) :- big1(X, Y), big2(Z, W), link(Y, Z).
end_module.
`
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	_, off, err := refCall(sys, parseGoal(t, "q(X, W)"))
	if err != nil {
		t.Fatal(err)
	}
	_, on := measureModule(t, sys, "q", term.NewVar("X"), term.NewVar("W"))
	if on.Answers != off.Answers {
		t.Fatalf("planner changed the answer count: on %d, off %d", on.Answers, off.Answers)
	}
	if on.Attempts*5 > off.Attempts {
		t.Errorf("planned order is not ≥5× cheaper: %d attempts planned vs %d written",
			on.Attempts, off.Attempts)
	}
}
