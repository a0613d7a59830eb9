package engine

import (
	"fmt"
	"strings"

	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/term"
)

// Bytecode compilation (see bytecode.go for the machine). compileBC lowers
// one planned rule version to a bcProg, tracking which environment slots
// are bound as it walks the fitted schedule — the same left-to-right
// binding propagation the interpreter's environment performs dynamically.
// Anything outside the compilable fragment reports a reason and the rule
// stays interpreted; the fragment covers all of plain Datalog with
// arithmetic, comparisons and ground-pattern negation, which is where the
// per-tuple win lives.

// bcCompiler interns constants and functor shapes while lowering one rule.
type bcCompiler struct {
	p     *bcProg
	xr    map[term.Term]int32
	fnIdx map[bcFn]int32
}

func (b *bcCompiler) xrOf(t term.Term) int32 {
	if i, ok := b.xr[t]; ok {
		return i
	}
	i := int32(len(b.p.xr))
	b.p.xr = append(b.p.xr, t)
	b.xr[t] = i
	return i
}

func (b *bcCompiler) fnOf(sym string, arity int) int32 {
	key := bcFn{sym: sym, arity: arity}
	if i, ok := b.fnIdx[key]; ok {
		return i
	}
	i := int32(len(b.p.fns))
	b.p.fns = append(b.p.fns, key)
	b.fnIdx[key] = i
	return i
}

// compileBC lowers a planned rule version, or explains why it cannot.
func compileBC(c *Compiled) (*bcProg, string) {
	if len(c.Body) == 0 {
		return nil, "no body items"
	}
	b := &bcCompiler{
		p:     &bcProg{c: c, nregs: c.NVars},
		xr:    make(map[term.Term]int32),
		fnIdx: make(map[bcFn]int32),
	}
	bound := make([]bool, c.NVars)
	for i := range c.Body {
		it := &c.Body[i]
		var item bcItem
		var reason string
		switch it.Kind {
		case ItemRel:
			b.compileRelItem(&item, it, bound)
		case ItemNegRel:
			reason = b.compileNegItem(&item, it, bound)
		case ItemBuiltin:
			reason = b.compileBuiltin(&item, it, bound)
		}
		if reason != "" {
			return nil, reason
		}
		b.p.items = append(b.p.items, item)
	}
	for _, a := range c.HeadArgs {
		ha, reason := b.compileValue(a, bound)
		if reason != "" {
			return nil, reason
		}
		b.p.head = append(b.p.head, ha)
	}
	return b.p, ""
}

// compileRelItem lowers a positive literal. Every shape is compilable: the
// pattern template keeps constants and still-free subterms, bound
// positions get activation-time fills (so the lookup path sees the same
// resolved view the interpreter's environment presents), and the match
// program classifies each argument as constant test, register store (first
// occurrence), register compare (bound or repeated), or functor descent.
func (b *bcCompiler) compileRelItem(item *bcItem, it *CItem, bound []bool) {
	inItem := make(map[int]bool)
	var emit func(pos int32, t term.Term)
	emit = func(pos int32, t term.Term) {
		switch x := t.(type) {
		case *term.Var:
			if bound[x.Index] || inItem[x.Index] {
				item.match = append(item.match, bcInstr{op: opArgCmp, a: pos, b: int32(x.Index)})
			} else {
				item.match = append(item.match, bcInstr{op: opArgStore, a: pos, b: int32(x.Index)})
				inItem[x.Index] = true
			}
		case *term.Functor:
			if term.IsGround(x) {
				item.match = append(item.match, bcInstr{op: opArgConst, a: pos, b: b.xrOf(x)})
				return
			}
			item.match = append(item.match, bcInstr{op: opArgFunctor, a: pos, b: b.fnOf(x.Sym, len(x.Args))})
			for j, sub := range x.Args {
				emit(int32(j), sub)
			}
			item.match = append(item.match, bcInstr{op: opArgPop})
		default:
			item.match = append(item.match, bcInstr{op: opArgConst, a: pos, b: b.xrOf(t)})
		}
	}
	for pos, a := range it.Args {
		switch x := a.(type) {
		case *term.Var:
			if bound[x.Index] {
				item.patOps = append(item.patOps, bcPatOp{pos: int32(pos), reg: int32(x.Index)})
			}
			emit(int32(pos), a)
		case *term.Functor:
			if term.IsGround(x) {
				emit(int32(pos), a)
				continue
			}
			if varsCovered(x, bound) {
				// Fully determined by earlier items: build the ground value
				// into the pattern once per activation and compare candidates
				// against it whole.
				item.patOps = append(item.patOps, bcPatOp{pos: int32(pos), reg: -1, build: b.buildOps(x, bound, nil)})
				item.match = append(item.match, bcInstr{op: opArgPat, a: int32(pos)})
				continue
			}
			if anyVarBound(x, bound) {
				// Partially bound: substitute what is known so index and
				// hash-key selection match the interpreter's resolved view;
				// matching still descends structurally.
				item.patOps = append(item.patOps, bcPatOp{pos: int32(pos), reg: -1, build: b.buildOps(x, bound, nil)})
			}
			emit(int32(pos), a)
		default:
			emit(int32(pos), a)
		}
	}
	for _, a := range it.Args {
		markVarsBound(a, bound)
	}
}

// compileNegItem lowers a negated literal: every variable must already be
// bound, so the activation pattern is ground and the probe needs no
// environment. An unbound variable would make the interpreter throw at
// run time; the rule stays interpreted so it still does.
func (b *bcCompiler) compileNegItem(item *bcItem, it *CItem, bound []bool) string {
	for pos, a := range it.Args {
		ha, reason := b.compileValue(a, bound)
		if reason != "" {
			return fmt.Sprintf("negation on %s with possibly unbound argument", it.Pred)
		}
		if ha.raw == nil {
			item.patOps = append(item.patOps, bcPatOp{pos: int32(pos), reg: ha.reg, build: ha.build})
		}
	}
	return ""
}

// unboundVarOf returns t's variable when t is a single still-free variable.
func unboundVarOf(t term.Term, bound []bool) (*term.Var, bool) {
	v, ok := t.(*term.Var)
	if !ok || bound[v.Index] {
		return nil, false
	}
	return v, true
}

// compileBuiltin lowers "=" and the comparisons. The compilable forms are
// exactly the ones whose interpreter outcome is decided by ground values:
// an assignment into one free variable, a ground-vs-ground test, or a
// ground comparison. Anything that would unify structures with free
// variables — or throw — stays interpreted.
func (b *bcCompiler) compileBuiltin(item *bcItem, it *CItem, bound []bool) string {
	if len(it.Args) != 2 {
		return fmt.Sprintf("builtin %s with %d arguments", it.Op, len(it.Args))
	}
	bi := &bcBuiltin{op: it.Op}
	l, r := it.Args[0], it.Args[1]
	switch it.Op {
	case "=":
		lv, lFree := unboundVarOf(l, bound)
		rv, rFree := unboundVarOf(r, bound)
		switch {
		case lFree:
			o, reason := b.compileOperand(r, bound)
			if reason != "" {
				return reason
			}
			bi.kind, bi.dst, bi.right = bcbAssign, int32(lv.Index), o
			bound[lv.Index] = true
		case rFree:
			o, reason := b.compileOperand(l, bound)
			if reason != "" {
				return reason
			}
			bi.kind, bi.dst, bi.right = bcbAssign, int32(rv.Index), o
			bound[rv.Index] = true
		default:
			lo, reason := b.compileOperand(l, bound)
			if reason == "" {
				var ro bcOperand
				ro, reason = b.compileOperand(r, bound)
				bi.kind, bi.left, bi.right = bcbTest, lo, ro
			}
			if reason != "" {
				return reason
			}
		}
	case "<", ">", ">=", "=<", "==", "!=":
		lo, reason := b.compileOperand(l, bound)
		if reason == "" {
			var ro bcOperand
			ro, reason = b.compileOperand(r, bound)
			bi.kind, bi.left, bi.right = bcbCompare, lo, ro
		}
		if reason != "" {
			return reason
		}
	default:
		return fmt.Sprintf("builtin %s", it.Op)
	}
	item.bi = bi
	return ""
}

// compileValue lowers one fully bound value — a head argument or negation
// pattern slot — to a register read, a shared ground constant, or a build
// program.
func (b *bcCompiler) compileValue(t term.Term, bound []bool) (bcArg, string) {
	switch x := t.(type) {
	case *term.Var:
		if !bound[x.Index] {
			return bcArg{}, fmt.Sprintf("variable %s not bound by the body", x.Name)
		}
		return bcArg{reg: int32(x.Index)}, ""
	case *term.Functor:
		if term.IsGround(x) {
			return bcArg{reg: -1, raw: x}, ""
		}
		if !varsCovered(x, bound) {
			return bcArg{}, "structure with unbound variables"
		}
		return bcArg{reg: -1, build: b.buildOps(x, bound, nil)}, ""
	default:
		return bcArg{reg: -1, raw: t}, ""
	}
}

// buildOps appends the build program for t. Free variables push their
// term.Var as a constant — the partial-pattern case, where the built term
// stands in for the interpreter's partially resolved view; callers that
// need ground results exclude free variables beforehand.
func (b *bcCompiler) buildOps(t term.Term, bound []bool, code []bcInstr) []bcInstr {
	switch x := t.(type) {
	case *term.Var:
		if bound[x.Index] {
			return append(code, bcInstr{op: opBReg, a: int32(x.Index)})
		}
		return append(code, bcInstr{op: opBConst, a: b.xrOf(t)})
	case *term.Functor:
		if term.IsGround(x) {
			return append(code, bcInstr{op: opBConst, a: b.xrOf(t)})
		}
		for _, sub := range x.Args {
			code = b.buildOps(sub, bound, code)
		}
		return append(code, bcInstr{op: opBFunctor, b: b.fnOf(x.Sym, len(x.Args))})
	default:
		return append(code, bcInstr{op: opBConst, a: b.xrOf(t)})
	}
}

// Static arithmetic classification of one builtin side, mirroring
// IsArithExpr over the compile-time shape.
const (
	arithOK        = iota // arithmetic whenever the leaf registers are numeric
	arithNever            // can never satisfy IsArithExpr
	arithIrregular        // could satisfy IsArithExpr yet make EvalArith throw
)

// arithClass classifies t and, for arithOK, appends its evaluation
// program.
func (b *bcCompiler) arithClass(t term.Term, code []bcInstr) (int, []bcInstr) {
	switch x := t.(type) {
	case term.Int, term.Float, term.Big:
		return arithOK, append(code, bcInstr{op: opAPushConst, a: b.xrOf(t)})
	case *term.Var:
		// Bound at run time (callers verified); numericness is dynamic.
		return arithOK, append(code, bcInstr{op: opAPushReg, a: int32(x.Index)})
	case *term.Functor:
		op, isOp := bcArithOpOf(x.Sym)
		if !isOp || len(x.Args) == 0 || len(x.Args) > 2 {
			return arithNever, code
		}
		// IsArithExpr admits -(X) and abs(X, Y) but EvalArith rejects them;
		// whether that throw fires depends on runtime numericness, so the
		// shape poisons the rule — unless a statically non-arithmetic child
		// already keeps IsArithExpr false.
		irregular := (len(x.Args) == 1) != (x.Sym == "abs")
		c2 := code
		for _, sub := range x.Args {
			var sc int
			sc, c2 = b.arithClass(sub, c2)
			if sc == arithNever {
				return arithNever, code
			}
			if sc == arithIrregular {
				irregular = true
			}
		}
		if irregular {
			return arithIrregular, code
		}
		return arithOK, append(c2, bcInstr{op: op})
	default:
		return arithNever, code
	}
}

// bcArithOpOf maps a source operator to its opcode.
func bcArithOpOf(sym string) (bcOp, bool) {
	switch sym {
	case "+":
		return opAAdd, true
	case "-":
		return opASub, true
	case "*":
		return opAMul, true
	case "/":
		return opADiv, true
	case "mod":
		return opAMod, true
	case "abs":
		return opAAbs, true
	}
	return 0, false
}

// leafRegs collects the registers whose runtime values decide whether t is
// an arithmetic expression.
func leafRegs(t term.Term, into []int32) []int32 {
	switch x := t.(type) {
	case *term.Var:
		return append(into, int32(x.Index))
	case *term.Functor:
		for _, sub := range x.Args {
			into = leafRegs(sub, into)
		}
	}
	return into
}

// compileOperand lowers one fully bound builtin side.
func (b *bcCompiler) compileOperand(t term.Term, bound []bool) (bcOperand, string) {
	if !varsCovered(t, bound) {
		return bcOperand{}, "operand with unbound variables"
	}
	var o bcOperand
	cls, code := b.arithClass(t, nil)
	switch cls {
	case arithIrregular:
		return bcOperand{}, "irregular arithmetic form"
	case arithOK:
		o.arith, o.leaves = code, leafRegs(t, nil)
	}
	o.build = b.buildOps(t, bound, nil)
	return o, ""
}

// varsCovered reports whether every variable of t is bound.
func varsCovered(t term.Term, bound []bool) bool {
	switch x := t.(type) {
	case *term.Var:
		return bound[x.Index]
	case *term.Functor:
		for _, sub := range x.Args {
			if !varsCovered(sub, bound) {
				return false
			}
		}
	}
	return true
}

// anyVarBound reports whether some variable of t is bound.
func anyVarBound(t term.Term, bound []bool) bool {
	switch x := t.(type) {
	case *term.Var:
		return bound[x.Index]
	case *term.Functor:
		for _, sub := range x.Args {
			if anyVarBound(sub, bound) {
				return true
			}
		}
	}
	return false
}

// markVarsBound records t's variables as bound.
func markVarsBound(t term.Term, bound []bool) {
	switch x := t.(type) {
	case *term.Var:
		bound[x.Index] = true
	case *term.Functor:
		for _, sub := range x.Args {
			markVarsBound(sub, bound)
		}
	}
}

// ---- Disassembly entry points (coralc -disasm, REPL :disasm) ----

// DisasmProgram renders the bytecode of every rule of an optimized
// program, stratum by stratum; ineligible rules say why they stay
// interpreted. Rules are compiled as written (the cost-based planner
// reorders bodies per call at run time, so run-time programs may differ in
// item order, never in semantics).
func DisasmProgram(p *Program) string {
	var b strings.Builder
	for si, st := range p.Strata {
		groups := []struct {
			name  string
			rules []*Compiled
		}{{"exit", st.ExitRules}, {"rec", st.RecRules}, {"agg", st.AggRules}}
		for _, g := range groups {
			for _, c := range g.rules {
				fmt.Fprintf(&b, "%% stratum %d (%s): %s\n", si, g.name, c.String())
				prog, reason := compileBC(c)
				if prog == nil {
					fmt.Fprintf(&b, "  interpreted: %s\n", reason)
					continue
				}
				b.WriteString(prog.Disasm())
			}
		}
	}
	return b.String()
}

// DisasmSource parses program text and renders the bytecode of every
// module's exported query forms, in the layout coralc prints rewritten
// programs.
func DisasmSource(src string) (string, error) {
	u, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, m := range u.Modules {
		for _, e := range m.Exports {
			for _, form := range e.Forms {
				prog, err := BuildProgram(m, ast.PredKey{Name: e.Pred, Arity: e.Arity}, form)
				if err != nil {
					return "", fmt.Errorf("module %s, %s(%s): %w", m.Name, e.Pred, form, err)
				}
				fmt.Fprintf(&b, "%% ===== module %s, query form %s(%s) =====\n", m.Name, e.Pred, form)
				b.WriteString(DisasmProgram(prog))
			}
		}
	}
	if b.Len() == 0 {
		return "", fmt.Errorf("engine: no exported query forms to disassemble")
	}
	return b.String(), nil
}
