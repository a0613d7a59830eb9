// Package flow implements whole-program abstract interpretation over a
// module's predicate dependency graph (paper §4, §6: the compiler analyzes
// the program and the declared query forms to choose rewriting and
// evaluation strategies). Starting from every exported query form it
// infers, per derived predicate and per reachable adornment:
//
//   - the binding pattern at call sites, propagated left to right with
//     CORAL's default sideways information passing and joined across call
//     sites (a ground ⊑ bound ⊑ free lattice per argument position);
//   - the groundness of stored facts (whether the predicate can ever hold
//     a non-ground fact, paper §3.1);
//   - a type/shape summary per argument: constant sorts and functor
//     skeletons seen in rule heads, widened at depth k.
//
// Three consumers read the results: the interprocedural vet checks in
// internal/analysis, the adornment/magic rewriter (internal/rewrite reuses
// Reach as its single reachability traversal), and the engine (rule
// pruning before fixpoint setup and join-planner seeding, engine/program.go
// and engine/plan.go).
package flow

import (
	"coral/internal/ast"
	"coral/internal/term"
)

// BindVal is the per-argument binding lattice, ordered by information
// loss: Unreached ⊑ Ground ⊑ Bound ⊑ Free. Join is max.
type BindVal uint8

// The lattice values.
const (
	// Unreached is ⊥: no call or fact has reached this position yet.
	Unreached BindVal = iota
	// Ground: the argument is always a ground term here.
	Ground
	// Bound: the argument is always bound to a term, but the term may
	// contain (or be unified with) variables — non-ground data (§3.1).
	Bound
	// Free: the argument may be an unbound variable here.
	Free
)

// Join returns the least upper bound.
func (v BindVal) Join(w BindVal) BindVal {
	if w > v {
		return w
	}
	return v
}

// Meet returns the greatest lower bound (used when a binding event
// strengthens what is known about a variable).
func (v BindVal) Meet(w BindVal) BindVal {
	if w < v {
		return w
	}
	return v
}

// Letter renders the value as an adornment letter: anything known to be
// bound is 'b', a possibly-unbound position is 'f'.
func (v BindVal) Letter() byte {
	if v == Free {
		return 'f'
	}
	return 'b'
}

// String renders the value for reports: g(round), b(ound), f(ree),
// "." for unreached.
func (v BindVal) String() string {
	switch v {
	case Ground:
		return "g"
	case Bound:
		return "b"
	case Free:
		return "f"
	}
	return "."
}

// Context is one analysis context: a derived predicate together with the
// adornment it is reached under.
type Context struct {
	Pred  ast.PredKey
	Adorn string
}

// String renders the context as the adorned predicate name.
func (c Context) String() string { return c.Pred.Name + "_" + c.Adorn }

// AllFree returns the all-free adornment for an arity.
func AllFree(arity int) string {
	b := make([]byte, arity)
	for i := range b {
		b[i] = 'f'
	}
	return string(b)
}

// AllFreeAdorn reports whether every letter of an adornment is 'f'.
func AllFreeAdorn(adorn string) bool {
	for i := 0; i < len(adorn); i++ {
		if adorn[i] != 'f' {
			return false
		}
	}
	return true
}

// --- variable set helpers shared by Reach and Analyze ---

// VarSet tracks variables by object identity (parsed rules share one *Var
// per name per rule).
type VarSet map[*term.Var]bool

// AddVars inserts every variable of t.
func (s VarSet) AddVars(t term.Term) {
	switch x := t.(type) {
	case *term.Var:
		s[x] = true
	case *term.Functor:
		for _, a := range x.Args {
			s.AddVars(a)
		}
	}
}

// Covers reports whether every variable of t is in the set (a term with
// no variables is covered).
func (s VarSet) Covers(t term.Term) bool {
	switch x := t.(type) {
	case *term.Var:
		return s[x]
	case *term.Functor:
		for _, a := range x.Args {
			if !s.Covers(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// walkVars calls f for every variable occurrence in t.
func walkVars(t term.Term, f func(*term.Var)) {
	switch x := t.(type) {
	case *term.Var:
		f(x)
	case *term.Functor:
		for _, a := range x.Args {
			walkVars(a, f)
		}
	}
}

// aggPositions collects, per predicate, the head positions computed by
// aggregation in any of its rules. Bindings cannot be passed into an
// aggregated position, so adornment demotes them to free.
func aggPositions(rules []*ast.Rule) map[ast.PredKey]map[int]bool {
	out := make(map[ast.PredKey]map[int]bool)
	for _, r := range rules {
		k := r.Head.Key()
		for _, ag := range r.Aggs {
			if out[k] == nil {
				out[k] = make(map[int]bool)
			}
			out[k][ag.Pos] = true
		}
	}
	return out
}

// normalizeAdorn demotes bound letters at aggregated positions.
func normalizeAdorn(aggs map[int]bool, ad string) string {
	if len(aggs) == 0 {
		return ad
	}
	b := []byte(ad)
	for pos := range aggs {
		if pos < len(b) {
			b[pos] = 'f'
		}
	}
	return string(b)
}
