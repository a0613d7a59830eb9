package engine

import (
	"cmp"
	"fmt"
	"math/big"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// Builtins: arithmetic expression evaluation and comparisons. Following
// CORAL (Figure 3: C1 = C + EC), the "=" builtin evaluates arithmetic
// expressions when their variables are bound and otherwise unifies
// structurally; comparisons require ground operands.

// evalError aborts an evaluation; it is recovered at the evaluation entry
// points and surfaced as an ordinary error.
type evalError struct{ err error }

func throwf(format string, args ...any) {
	panic(evalError{fmt.Errorf(format, args...)})
}

// Throw aborts the current evaluation with err; the engine surfaces it as
// an ordinary error at the evaluation boundary. Host-defined predicates
// and relation implementations use it (via panic values) to report
// failures from inside the get-next-tuple iterator protocol, which has no
// error channel.
func Throw(err error) {
	panic(evalError{err})
}

// recoverEval converts a panic into an error return at an evaluation
// boundary: evalError panics carry deliberate evaluation failures; any
// other panic (a host predicate failing, an I/O error surfacing through an
// iterator, a genuine bug) is wrapped rather than crashing the process —
// the single-user system should report a bad query, not die (paper §2).
func recoverEval(err *error) {
	if r := recover(); r != nil {
		if ee, ok := r.(evalError); ok {
			*err = ee.err
			return
		}
		*err = fmt.Errorf("engine: evaluation panic: %v", r)
	}
}

// arithOps are the function symbols interpreted by the evaluator.
var arithOps = map[string]bool{"+": true, "-": true, "*": true, "/": true, "mod": true, "abs": true}

// IsArithExpr reports whether t (dereferenced) is an arithmetic expression:
// a numeric constant, or an arithmetic functor over arithmetic expressions.
// Variables make the answer false.
func IsArithExpr(t term.Term, env *term.Env) bool {
	t, env = term.Deref(t, env)
	switch x := t.(type) {
	case term.Int, term.Float, term.Big:
		return true
	case *term.Functor:
		if !arithOps[x.Sym] || len(x.Args) < 1 || len(x.Args) > 2 {
			return false
		}
		for _, a := range x.Args {
			if !IsArithExpr(a, env) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// EvalArith evaluates an arithmetic expression to a numeric constant. It
// throws an evaluation error on type mismatch or unbound variables.
//
// lint:allow ctxprop — bounded, non-looping single-term reduction: the
// recursion depth is the expression's syntactic depth, so there is nothing
// a context could usefully cancel.
func EvalArith(t term.Term, env *term.Env) term.Term {
	t, env = term.Deref(t, env)
	switch x := t.(type) {
	case term.Int, term.Float, term.Big:
		return x
	case *term.Var:
		throwf("engine: unbound variable %s in arithmetic expression", x)
	case *term.Functor:
		if !arithOps[x.Sym] {
			throwf("engine: %s/%d is not an arithmetic operation", x.Sym, len(x.Args))
		}
		if x.Sym == "abs" && len(x.Args) == 1 {
			return absTerm(EvalArith(x.Args[0], env))
		}
		if len(x.Args) != 2 {
			throwf("engine: arithmetic operation %s needs 2 operands", x.Sym)
		}
		a := EvalArith(x.Args[0], env)
		b := EvalArith(x.Args[1], env)
		return applyArith(x.Sym, a, b)
	}
	throwf("engine: non-numeric term %s in arithmetic expression", t)
	return nil
}

func absTerm(a term.Term) term.Term {
	switch x := a.(type) {
	case term.Int:
		if x < 0 {
			return -x
		}
		return x
	case term.Float:
		if x < 0 {
			return -x
		}
		return x
	case term.Big:
		return term.NewBig(new(big.Int).Abs(x.V))
	}
	throwf("engine: abs on non-numeric %s", a)
	return nil
}

// applyArith computes a op b with numeric promotion: Int op Int stays Int
// (overflow promotes to Big), any Float makes Float, any Big makes Big.
// Int op Int is tested first: it is nearly every operation a rule body
// runs, in either binding store.
func applyArith(op string, a, b term.Term) term.Term {
	if ai, aok := a.(term.Int); aok {
		if bi, bok := b.(term.Int); bok {
			return applyInt(op, int64(ai), int64(bi))
		}
	}
	if af, aok := a.(term.Float); aok {
		return applyFloat(op, float64(af), toFloat(b))
	}
	if bf, bok := b.(term.Float); bok {
		return applyFloat(op, toFloat(a), float64(bf))
	}
	return applyBig(op, toBig(a), toBig(b))
}

// applyInt computes ai op bi, promoting to Big on overflow.
func applyInt(op string, ai, bi int64) term.Term {
	switch op {
	case "+":
		s := ai + bi
		if (s > ai) == (bi > 0) {
			return term.Int(s)
		}
	case "-":
		s := ai - bi
		if (s < ai) == (bi > 0) {
			return term.Int(s)
		}
	case "*":
		if ai == 0 || bi == 0 {
			return term.Int(0)
		}
		s := ai * bi
		if s/bi == ai {
			return term.Int(s)
		}
	case "/":
		if bi == 0 {
			throwf("engine: division by zero")
		}
		return term.Int(ai / bi)
	case "mod":
		if bi == 0 {
			throwf("engine: mod by zero")
		}
		return term.Int(ai % bi)
	}
	// Overflow: promote to arbitrary precision (the paper's BigNum role).
	return applyBig(op, big.NewInt(ai), big.NewInt(bi))
}

func toFloat(t term.Term) float64 {
	switch x := t.(type) {
	case term.Int:
		return float64(x)
	case term.Float:
		return float64(x)
	case term.Big:
		f, _ := new(big.Float).SetInt(x.V).Float64()
		return f
	}
	throwf("engine: non-numeric operand %s", t)
	return 0
}

func toBig(t term.Term) *big.Int {
	switch x := t.(type) {
	case term.Int:
		return big.NewInt(int64(x))
	case term.Big:
		return x.V
	}
	throwf("engine: non-integer operand %s in integer arithmetic", t)
	return nil
}

func applyFloat(op string, a, b float64) term.Term {
	switch op {
	case "+":
		return term.Float(a + b)
	case "-":
		return term.Float(a - b)
	case "*":
		return term.Float(a * b)
	case "/":
		if b == 0 {
			throwf("engine: division by zero")
		}
		return term.Float(a / b)
	case "mod":
		throwf("engine: mod on floats")
	}
	throwf("engine: unknown arithmetic op %s", op)
	return nil
}

func applyBig(op string, a, b *big.Int) term.Term {
	out := new(big.Int)
	switch op {
	case "+":
		out.Add(a, b)
	case "-":
		out.Sub(a, b)
	case "*":
		out.Mul(a, b)
	case "/":
		if b.Sign() == 0 {
			throwf("engine: division by zero")
		}
		out.Quo(a, b)
	case "mod":
		if b.Sign() == 0 {
			throwf("engine: mod by zero")
		}
		out.Rem(a, b)
	default:
		throwf("engine: unknown arithmetic op %s", op)
	}
	// Demote back to Int when it fits, keeping representations canonical.
	if out.IsInt64() {
		return term.Int(out.Int64())
	}
	return term.NewBig(out)
}

// evalBuiltin executes one builtin item under env, recording bindings on
// tr. It reports whether the builtin succeeded; bindings made before a
// failure are the caller's to undo via its trail mark.
func evalBuiltin(op string, args []term.Term, env *term.Env, tr *term.Trail) bool {
	if len(args) != 2 {
		throwf("engine: builtin %s expects 2 arguments", op)
	}
	switch op {
	case "=":
		left, right := args[0], args[1]
		// Arithmetic assignment: evaluable sides are computed before
		// unification, so C1 = C + EC assigns and 2+2 = 4 holds. A side
		// containing unbound variables is not evaluable and unifies
		// structurally — CORAL does no type checking (§9), so X = a + 1
		// binds X to the symbolic term +(a, 1).
		lArith := IsArithExpr(left, env)
		rArith := IsArithExpr(right, env)
		switch {
		case lArith && rArith:
			return compareValues(EvalArith(left, env), EvalArith(right, env)) == 0
		case rArith:
			return term.Unify(left, env, EvalArith(right, env), nil, tr)
		case lArith:
			return term.Unify(EvalArith(left, env), nil, right, env, tr)
		default:
			return term.Unify(left, env, right, env, tr)
		}
	case "==", "!=", "<", ">", ">=", "=<":
		c, ok := compareGround(args[0], args[1], env)
		if !ok {
			throwf("engine: %s on non-ground operands", op)
		}
		return compareOp(op, c)
	}
	throwf("engine: unknown builtin %s", op)
	return false
}

// compareGround compares two operands after arithmetic evaluation where
// applicable; ok is false when either side is non-ground.
func compareGround(a, b term.Term, env *term.Env) (int, bool) {
	av, aok := operandValue(a, env)
	bv, bok := operandValue(b, env)
	if !aok || !bok {
		return 0, false
	}
	return compareValues(av, bv), true
}

// compareValues orders two ground comparison values: numerically when both
// are numbers, by the standard term order otherwise.
func compareValues(a, b term.Term) int {
	if ai, aok := a.(term.Int); aok {
		if bi, bok := b.(term.Int); bok {
			return cmp.Compare(ai, bi)
		}
	}
	if term.IsNumeric(a) && term.IsNumeric(b) {
		return term.NumCompare(a, b)
	}
	return term.Compare(a, b)
}

// compareOp applies comparison operator op to the three-way result c.
func compareOp(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	case "=<":
		return c <= 0
	case "==":
		return c == 0
	default: // "!="
		return c != 0
	}
}

// operandValue resolves a comparison operand: arithmetic expressions are
// evaluated, other terms are resolved to environment-free ground terms.
func operandValue(t term.Term, env *term.Env) (term.Term, bool) {
	if IsArithExpr(t, env) {
		return EvalArith(t, env), true
	}
	if !term.GroundUnder(t, env) {
		return nil, false
	}
	res, _ := term.ResolveArgs([]term.Term{t}, env)
	return res[0], true
}

// isUpdate recognizes the side-effecting updates pipelining allows (paper
// §5.2: its guaranteed order of execution lets programs "use predicates like
// updates that involve side-effects").
func isUpdate(key ast.PredKey) bool {
	return key.Arity == 1 && (key.Name == "assert" || key.Name == "retract")
}

// update performs assert(fact) or retract(pattern) on a base relation for a
// pipelined rule (pipeCall.source); backtracking does not undo it.
func (pc *pipeCall) update(op string, arg term.Term, env *term.Env) {
	t, e := term.Deref(arg, env)
	f, ok := t.(*term.Functor)
	if !ok || f.IsAtom() {
		throwf("engine: %s expects a predicate term, got %s", op, t)
	}
	key, sys := ast.PredKey{Name: f.Sym, Arity: len(f.Args)}, pc.def.sys
	if !pc.cfg.v.writer { // a server session: other sessions' reads would race
		throwf("engine: %s is not available in a read-only evaluation", op)
	}
	if _, isModule := sys.Export(key); isModule {
		throwf("engine: %s cannot modify %s: it is defined by a module", op, key)
	}
	rel, ok := sys.Relation(key)
	if !ok {
		hr, err := sys.BaseRelation(key.Name, key.Arity)
		if err != nil {
			throwf("%v", err)
		}
		rel = hr
	}
	d, canDelete := rel.(relation.Deleter)
	switch {
	case op == "assert": // a non-ground fact is universally quantified (§3.1)
		rel.Insert(relation.NewFact(f.Args, e))
	case !canDelete:
		throwf("engine: relation %s does not support deletion", key)
	default:
		resolved, _ := term.ResolveArgs(f.Args, e)
		d.Delete(resolved, nil)
	}
}
