package engine

import (
	"fmt"
	"strings"

	"coral/internal/term"
)

// Register bytecode for rule bodies (ROADMAP item 4). Instead of
// interpreting CItem structures per candidate tuple — generic unification,
// environment dereference and trail traffic on every fact the join
// considers — an eligible rule version is compiled once per (rule,
// adornment) into flat instruction streams over a register file, the shape
// of WAM-style Datalog compilation (Brass & Stephan; the opConst/opVar/
// opFunctor opcode streams of classic Prolog machines).
//
// The register file is one of the nested-loops driver's two binding stores
// (bindings, join.go); its invariants make the trail unnecessary:
//
//   - Registers only ever hold ground, environment-free terms. The driver's
//     prologue (evaluator.bind) gives the register file only rule
//     applications whose scan ranges hold no non-ground facts, so candidate
//     arguments are always ground.
//   - A register is written before it is read: first occurrences of a
//     variable compile to a store, later occurrences to an equality
//     compare (the specialization the flow analysis' groundness results
//     license — no dereference, no occurs check, no binding to undo).
//     Backtracking simply overwrites; stale registers are never read
//     because only positions left of the cursor are consulted.
//   - Registers hold term.Term values only, and the a.* ops and builtins
//     compute through builtins.go (applyArith, absTerm, EvalArith,
//     compareValues), so both stores share one arithmetic and one order.
//
// Control — scans, backtracking, counters, budget polls, duplicate skip,
// emission — is the driver's, so it is the same whichever store binds.
// compilebc.go holds the compiler and the eligibility rules; anything it
// cannot prove binds in the environment store, as does any application the
// prologue declines.

// bcOp enumerates the opcodes. The three families share one dispatch
// switch (exec) so tools/lint's opcheck analyzer can verify coverage:
// arg.* ops match one candidate fact, b.* ops build terms (patterns, head
// arguments, structural "=" values), a.* ops evaluate arithmetic on the
// same term stack.
type bcOp uint8

// Opcodes. Operand fields a, b of bcInstr are annotated per op.
const (
	opArgConst   bcOp = iota // fail unless candidate arg a equals constant xr[b]
	opArgPat                 // fail unless candidate arg a equals the activation pattern at a
	opArgStore               // store candidate arg a into register b (first occurrence)
	opArgCmp                 // fail unless candidate arg a equals register b (repeated occurrence)
	opArgFunctor             // descend into candidate arg a, which must match shape fns[b]
	opArgPop                 // ascend to the enclosing argument list
	opBReg                   // push register a
	opBConst                 // push constant xr[a] (also raw variables of partial patterns)
	opBFunctor               // pop fns[b].arity terms, push the built functor
	opAPushReg               // push register a, evaluating an arithmetic functor
	opAPushConst             // push numeric constant xr[a]
	opAAdd                   // pop two values, push their sum
	opASub                   // pop two values, push their difference
	opAMul                   // pop two values, push their product
	opADiv                   // pop two values, push their quotient
	opAMod                   // pop two values, push their remainder
	opAAbs                   // replace the top value with its absolute value
)

// bcInstr is one instruction; operand meaning depends on the opcode.
type bcInstr struct {
	op   bcOp
	a, b int32
}

// bcFn is a functor shape entry (symbol/arity), shared by match descents
// and build instructions.
type bcFn struct {
	sym   string
	arity int
}

// bcPatOp fills one bound position of an item's lookup pattern at
// activation time: either a plain register copy or a build program (bound
// or partially bound functor arguments). Positions without a bcPatOp keep
// the compile-time template term — constants, and variables still free at
// scan-open time — so index selection sees exactly the resolved view the
// interpreter's environment would present.
type bcPatOp struct {
	pos   int32
	reg   int32 // >= 0: copy this register; -1: run build
	build []bcInstr
}

// bcArg produces one value — a head argument, or a negation pattern slot:
// a register, a compile-time ground term, or a build program.
type bcArg struct {
	reg   int32     // >= 0: the register holding the value
	raw   term.Term // non-nil: compile-time ground constant
	build []bcInstr
}

// Builtin kinds.
const (
	bcbAssign  uint8 = iota // "=" binding one free variable
	bcbTest                 // "=" with both sides bound
	bcbCompare              // <, >, >=, =<, ==, !=
)

// bcOperand is one side of a builtin: an arithmetic evaluation program
// (nil when the side can never be an arithmetic expression), the registers
// the runtime classification inspects — mirroring IsArithExpr's dynamic
// test — and a structural build program for the non-arithmetic path.
type bcOperand struct {
	arith  []bcInstr
	leaves []int32
	build  []bcInstr
}

// bcBuiltin is one compiled builtin item.
type bcBuiltin struct {
	op          string // source operator, for disassembly
	kind        uint8
	dst         int32 // bcbAssign target register
	left, right bcOperand
}

// bcItem is the compiled form of the body item at the same position of
// bcProg.c, whose arguments are the lookup pattern's template.
type bcItem struct {
	patOps []bcPatOp
	match  []bcInstr  // ItemRel candidate filter
	bi     *bcBuiltin // ItemBuiltin
}

// bcProg is one rule version compiled to bytecode.
type bcProg struct {
	c     *Compiled
	items []bcItem
	head  []bcArg
	xr    []term.Term // interned constants (and raw pattern variables)
	fns   []bcFn
	nregs int
}

// bcMachine is the register-file binding store, pooled on its evaluator:
// the program being run, the register file, the two execution stacks, and
// per-position pattern buffers plus scratch for head construction.
type bcMachine struct {
	p     *bcProg
	regs  []term.Term
	terms []term.Term
	stack [][]term.Term
	// pats[i].buf is the pooled buffer position i's lookup pattern is filled
	// into; pats[i].active is the pattern its open scan was served with (buf,
	// or the item's template when nothing needed substitution) — match
	// programs compare candidates against it.
	pats []struct{ buf, active []term.Term }
	hd   []term.Term
}

// load readies the machine for one application of p. Registers are written
// before they are read, so nothing is cleared.
func (m *bcMachine) load(p *bcProg) {
	m.p = p
	if cap(m.regs) < p.nregs {
		m.regs = make([]term.Term, p.nregs)
	}
	for len(m.pats) < len(p.items) {
		m.pats = append(m.pats, struct{ buf, active []term.Term }{})
	}
	if cap(m.hd) < len(p.head) {
		m.hd = make([]term.Term, len(p.head))
	}
	m.hd = m.hd[:len(p.head)]
}

// exec runs one straight-line program. cur is the candidate argument list
// for match programs, pat the activation pattern (both nil otherwise). It
// reports false when a match op fails; build and arithmetic results are
// left on the term stack.
func (m *bcMachine) exec(code []bcInstr, cur, pat []term.Term) bool {
	p := m.p
	m.terms = m.terms[:0]
	m.stack = m.stack[:0]
	for _, ins := range code {
		// opcheck:dispatch
		switch ins.op {
		case opArgConst:
			if !term.Equal(p.xr[ins.b], cur[ins.a]) {
				return false
			}
		case opArgPat:
			if !term.Equal(pat[ins.a], cur[ins.a]) {
				return false
			}
		case opArgStore:
			m.regs[ins.b] = cur[ins.a]
		case opArgCmp:
			if !term.Equal(m.regs[ins.b], cur[ins.a]) {
				return false
			}
		case opArgFunctor:
			fn := &p.fns[ins.b]
			f, ok := cur[ins.a].(*term.Functor)
			if !ok || f.Sym != fn.sym || len(f.Args) != fn.arity {
				return false
			}
			m.stack = append(m.stack, cur)
			cur = f.Args
		case opArgPop:
			cur = m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
		case opBReg:
			m.terms = append(m.terms, m.regs[ins.a])
		case opBConst:
			m.terms = append(m.terms, p.xr[ins.a])
		case opBFunctor:
			fn := &p.fns[ins.b]
			args := make([]term.Term, fn.arity)
			copy(args, m.terms[len(m.terms)-fn.arity:])
			m.terms = m.terms[:len(m.terms)-fn.arity]
			m.terms = append(m.terms, term.NewFunctor(fn.sym, args...))
		case opAPushReg:
			// A functor value passed the runtime classification as an
			// arithmetic expression; numbers push as they are.
			v := m.regs[ins.a]
			if f, ok := v.(*term.Functor); ok {
				v = EvalArith(f, nil)
			}
			m.terms = append(m.terms, v)
		case opAPushConst:
			m.terms = append(m.terms, p.xr[ins.a])
		case opAAdd, opASub, opAMul, opADiv, opAMod:
			n := len(m.terms)
			m.terms[n-2] = applyArith(bcOpSym(ins.op), m.terms[n-2], m.terms[n-1])
			m.terms = m.terms[:n-1]
		case opAAbs:
			m.terms[len(m.terms)-1] = absTerm(m.terms[len(m.terms)-1])
		}
	}
	return true
}

// bcOpSym maps arithmetic opcodes back to their source operators for
// applyArith and the disassembler.
func bcOpSym(op bcOp) string {
	switch op {
	case opAAdd:
		return "+"
	case opASub:
		return "-"
	case opAMul:
		return "*"
	case opADiv:
		return "/"
	case opAMod:
		return "mod"
	default:
		return "abs"
	}
}

// value runs a build or arithmetic program and returns the term it leaves.
func (m *bcMachine) value(code []bcInstr) term.Term {
	m.exec(code, nil, nil)
	return m.terms[len(m.terms)-1]
}

// classify is the runtime arithmetic classification of one operand,
// mirroring IsArithExpr over the compile-time expression shape: the shape
// is already known arithmetic, so only the leaf registers need checking —
// numeric values pass, functor values recurse through IsArithExpr, and
// anything else makes the side structural.
func (m *bcMachine) classify(o *bcOperand) bool {
	if o.arith == nil {
		return false
	}
	for _, r := range o.leaves {
		switch v := m.regs[r].(type) {
		case term.Int, term.Float, term.Big:
		case *term.Functor:
			if !IsArithExpr(v, nil) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// operand resolves one builtin side, mirroring operandValue: a
// runtime-arithmetic side evaluates, any other builds structurally
// (eligibility guarantees groundness, so the non-ground throw cannot
// trigger here). arith reports which.
func (m *bcMachine) operand(o *bcOperand) (v term.Term, arith bool) {
	if m.classify(o) {
		return m.value(o.arith), true
	}
	return m.value(o.build), false
}

// builtin executes the compiled builtin at position i, byte-compatible with
// evalBuiltin over the same bindings.
func (m *bcMachine) builtin(i int) bool {
	bi := m.p.items[i].bi
	switch bi.kind {
	case bcbAssign:
		// One free variable: arithmetic sides evaluate (C1 = C + W
		// assigns), anything else binds the structurally built value —
		// CORAL does no type checking, so X = a + 1 stores +(a, 1).
		m.regs[bi.dst], _ = m.operand(&bi.right)
		return true
	case bcbTest:
		a, la := m.operand(&bi.left)
		b, ra := m.operand(&bi.right)
		if la && ra {
			return compareValues(a, b) == 0
		}
		return term.Equal(a, b)
	default: // bcbCompare
		a, _ := m.operand(&bi.left)
		b, _ := m.operand(&bi.right)
		return compareOp(bi.op, compareValues(a, b))
	}
}

// pattern fills the activation pattern for the item at position i: the
// compile-time template with bound positions overwritten from the
// registers, i.e. exactly the resolved view a lookup would compute from the
// environment store's environment — so index selection and argument- and
// pattern-index keying are identical under both stores. Every
// variable of a negated item is bound (eligibility), so its pattern is
// ground.
func (m *bcMachine) pattern(i int) ([]term.Term, *term.Env) {
	pat, ops := m.p.c.Body[i].Args, m.p.items[i].patOps
	if len(ops) > 0 {
		pat = append(m.pats[i].buf[:0], pat...)
		m.pats[i].buf = pat
		for k := range ops {
			if po := &ops[k]; po.reg >= 0 {
				pat[po.pos] = m.regs[po.reg]
			} else {
				pat[po.pos] = m.value(po.build)
			}
		}
	}
	m.pats[i].active = pat
	return pat, term.EmptyEnv()
}

func (m *bcMachine) match(i int, f Fact) bool {
	return m.exec(m.p.items[i].match, f.Args, m.pats[i].active)
}

func (m *bcMachine) head() ([]term.Term, *term.Env) {
	for hi := range m.p.head {
		h := &m.p.head[hi]
		switch {
		case h.reg >= 0:
			m.hd[hi] = m.regs[h.reg]
		case h.raw != nil:
			m.hd[hi] = h.raw
		default:
			m.hd[hi] = m.value(h.build)
		}
	}
	return m.hd, nil
}

// ---- Disassembly ----

// disasmInstr renders one instruction.
func disasmInstr(p *bcProg, ins bcInstr) string {
	// opcheck:disasm
	switch ins.op {
	case opArgConst:
		return fmt.Sprintf("arg.const  a%d == xr%d (%s)", ins.a, ins.b, p.xr[ins.b])
	case opArgPat:
		return fmt.Sprintf("arg.pat    a%d == pat%d", ins.a, ins.a)
	case opArgStore:
		return fmt.Sprintf("arg.store  a%d -> r%d", ins.a, ins.b)
	case opArgCmp:
		return fmt.Sprintf("arg.cmp    a%d == r%d", ins.a, ins.b)
	case opArgFunctor:
		return fmt.Sprintf("arg.func   a%d ~ %s/%d", ins.a, p.fns[ins.b].sym, p.fns[ins.b].arity)
	case opArgPop:
		return "arg.pop"
	case opBReg:
		return fmt.Sprintf("b.reg      push r%d", ins.a)
	case opBConst:
		return fmt.Sprintf("b.const    push xr%d (%s)", ins.a, p.xr[ins.a])
	case opBFunctor:
		return fmt.Sprintf("b.func     build %s/%d", p.fns[ins.b].sym, p.fns[ins.b].arity)
	case opAPushReg:
		return fmt.Sprintf("a.reg      push r%d", ins.a)
	case opAPushConst:
		return fmt.Sprintf("a.const    push xr%d (%s)", ins.a, p.xr[ins.a])
	case opAAdd, opASub, opAMul, opADiv, opAMod:
		return fmt.Sprintf("a.arith    %s", bcOpSym(ins.op))
	case opAAbs:
		return "a.arith    abs"
	default:
		return fmt.Sprintf("op%d", ins.op)
	}
}

func disasmCode(b *strings.Builder, p *bcProg, indent string, code []bcInstr) {
	for pc, ins := range code {
		fmt.Fprintf(b, "%s%2d  %s\n", indent, pc, disasmInstr(p, ins))
	}
}

func disasmOperand(b *strings.Builder, p *bcProg, name string, o *bcOperand) {
	if o.arith != nil {
		fmt.Fprintf(b, "      %s.arith (leaves", name)
		for _, r := range o.leaves {
			fmt.Fprintf(b, " r%d", r)
		}
		b.WriteString("):\n")
		disasmCode(b, p, "        ", o.arith)
	}
	fmt.Fprintf(b, "      %s.build:\n", name)
	disasmCode(b, p, "        ", o.build)
}

// Disasm renders the compiled program: constants, per-item match and
// pattern programs, builtin operand programs, and the head constructors.
func (p *bcProg) Disasm() string {
	var b strings.Builder
	if len(p.xr) > 0 {
		b.WriteString("  xr:")
		for i, t := range p.xr {
			fmt.Fprintf(&b, " %d=%s", i, t)
		}
		b.WriteString("\n")
	}
	for i := range p.items {
		it, src := &p.items[i], &p.c.Body[i]
		switch src.Kind {
		case ItemRel, ItemNegRel:
			kind := "rel"
			if src.Kind == ItemNegRel {
				kind = "neg"
			}
			fmt.Fprintf(&b, "  item %d: %s %s (backtrack %d)\n", i, kind, src.Pred, src.BacktrackTo)
			for _, po := range it.patOps {
				if po.reg >= 0 {
					fmt.Fprintf(&b, "    pat%d <- r%d\n", po.pos, po.reg)
				} else {
					fmt.Fprintf(&b, "    pat%d <- build:\n", po.pos)
					disasmCode(&b, p, "      ", po.build)
				}
			}
			disasmCode(&b, p, "    ", it.match)
		case ItemBuiltin:
			bi := it.bi
			kind := "compare"
			switch bi.kind {
			case bcbAssign:
				kind = fmt.Sprintf("assign r%d", bi.dst)
			case bcbTest:
				kind = "test"
			}
			fmt.Fprintf(&b, "  item %d: builtin %q %s\n", i, bi.op, kind)
			if bi.kind != bcbAssign {
				disasmOperand(&b, p, "left", &bi.left)
			}
			disasmOperand(&b, p, "right", &bi.right)
		}
	}
	b.WriteString("  head:\n")
	for i := range p.head {
		h := &p.head[i]
		switch {
		case h.reg >= 0:
			fmt.Fprintf(&b, "    %d <- r%d\n", i, h.reg)
		case h.raw != nil:
			fmt.Fprintf(&b, "    %d <- %s\n", i, h.raw)
		default:
			fmt.Fprintf(&b, "    %d <- build:\n", i)
			disasmCode(&b, p, "      ", h.build)
		}
	}
	return b.String()
}
