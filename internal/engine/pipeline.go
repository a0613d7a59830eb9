package engine

import (
	"fmt"

	"coral/internal/analysis/flow"
	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// Pipelining (paper §5.2) is top-down, tuple-at-a-time evaluation: a rule
// generates one answer and yields; asking for the next one reactivates the
// frozen computation, a suspended run of the one nested-loops driver
// (evaluator.run). Rules run in written order, literals left to right,
// backtracking chronologically; nothing is stored, at the cost of
// recomputation (and of looping on cyclic data).

// pipeProgram holds each predicate's rules in written order. Every body
// leads with a "$call" literal: matching the goal's call against the head
// pushes its bound arguments down. indexReqs are the argument-form indexes
// the rules probe relations outside the module with (addIndexReqs), the
// module's input to the base-relation index policy (indexBase).
type pipeProgram struct {
	rules     map[ast.PredKey][]*Compiled
	indexReqs map[ast.PredKey][][]int
}

func buildPipeProgram(m *ast.Module) (*pipeProgram, error) {
	pp := &pipeProgram{rules: make(map[ast.PredKey][]*Compiled), indexReqs: make(map[ast.PredKey][][]int)}
	for _, r := range m.Rules {
		if len(r.Aggs) > 0 {
			return nil, fmt.Errorf("engine: module %s: aggregation requires materialized evaluation", m.Name)
		}
		c, err := CompileRule(r, func(ast.PredKey) bool { return false })
		if err != nil {
			return nil, err
		}
		c.Body = append([]CItem{{Kind: ItemRel, Pred: ast.PredKey{Name: "$call", Arity: len(c.HeadArgs)}, Args: c.HeadArgs}}, c.Body...)
		pp.rules[c.HeadPred] = append(pp.rules[c.HeadPred], c)
	}
	return pp, nil
}

// addIndexReqs adds the index requests of one export form: in every
// context reachable from it under left-to-right sideways information
// passing (flow.Reach — the walk a materialized program's adornment makes),
// each rule is compiled behind a literal binding the context's bound head
// arguments, and a literal over a relation outside the module asks for an
// index on the positions bound when the written-order goal reaches it.
// Reach's error for an export the module defines no rules for is the one a
// materialized module gets from buildProgram.
func (pp *pipeProgram) addIndexReqs(m *ast.Module, query ast.PredKey, form string) error {
	rb, err := flow.Reach(m.Rules, query, form, flow.ReachOpts{})
	if err != nil || m.Ann.NoIndexing {
		return err
	}
	for _, ctx := range rb.Order {
		for _, rf := range rb.Rules[ctx] {
			var bound []term.Term
			for i, a := range rf.Rule.Head.Args {
				if ctx.Adorn[i] == 'b' {
					bound = append(bound, a)
				}
			}
			r := &ast.Rule{Head: rf.Rule.Head, Body: append([]ast.Literal{{Pred: "$bound", Args: bound}}, rf.Body...)}
			c, err := CompileRule(r, func(ast.PredKey) bool { return false })
			if err != nil {
				return err
			}
			for _, it := range c.Body[1:] {
				if it.Kind != ItemBuiltin && !rb.Derived[it.Pred] && !isUpdate(it.Pred) {
					addIndexReq(pp.indexReqs, it.Pred, it.BoundPos)
				}
			}
		}
	}
	return nil
}

// pipeCall is one pipelined call: the evaluator its goals share (sources,
// counters, budget polls). Its answers are its root goal's.
type pipeCall struct {
	evaluator
	def *ModuleDef
	cfg *callCfg
}

func (def *ModuleDef) callPipelined(cfg *callCfg, pred ast.PredKey, args []term.Term, env *term.Env) (relation.Iterator, error) {
	rules, ok := def.pipe.rules[pred]
	if !ok {
		return nil, fmt.Errorf("engine: module %s does not define %s", def.Src.Name, pred)
	}
	pc := &pipeCall{def: def, cfg: cfg}
	if g := newGuard(cfg.v.Ctx, cfg.v.Budget); g.active() {
		pc.guard = &g
	}
	pc.st = newStore(pc.source, nil)
	cfg.acc.collect(pc)
	return &pipeGoal{pc: pc, rules: rules, pos: -1, call: []Fact{relation.NewFact(args, env)}}, nil
}

// source resolves a body literal: assert and retract update a base relation
// once reached; the module's own predicates open a nested goal per lookup
// (so the driver's negation probe is pipelined negation).
func (pc *pipeCall) source(key ast.PredKey) (Source, error) {
	if isUpdate(key) {
		return relation.NewComputed(key.Name, key.Arity, func(pat []term.Term, env *term.Env) relation.Iterator {
			pc.update(key.Name, pat[0], env)
			return relation.SliceIterator([]Fact{relation.NewFact(pat, env)})
		}), nil
	}
	if rules, ok := pc.def.pipe.rules[key]; ok {
		return relation.NewComputed(key.Name, key.Arity, func(pat []term.Term, env *term.Env) relation.Iterator {
			return &pipeGoal{pc: pc, rules: rules, pos: -1, call: []Fact{relation.NewFact(pat, env)}}
		}), nil
	}
	return pc.cfg.external(key)
}

// pipeGoal is one goal suspended between answers: rule r's driver cursor
// (frames, store, trail), where run stopped in it (-1: open rule r next), and
// the call, the one fact the "$call" literal's scan reads.
type pipeGoal struct {
	pc     *pipeCall
	rules  []*Compiled
	r, pos int
	frames []frame
	s      envStore
	tr     term.Trail
	call   []Fact
	answer Fact
}

// Next resumes the rule that gave the last answer, then opens the ones after
// it; after the last, the goal fails (paper §5.2).
func (g *pipeGoal) Next() (Fact, bool) {
	for ; g.r < len(g.rules); g.r++ {
		c := g.rules[g.r]
		if g.pos < 0 {
			g.s.load(c, &g.tr)
			g.frames = append(g.frames[:0], make([]frame, len(c.Body))...)
			g.frames[0].iter = relation.SliceIterator(g.call)
		}
		if g.pos = g.pc.run(c, &fullRanges, &g.s, g.frames, max(g.pos, 0), g.emit); g.pos >= 0 {
			return g.answer, true
		}
		g.tr.Undo(0)
	}
	return Fact{}, false
}

// emit keeps one answer and stops the driver. An answer is charged like a
// derived fact, so MaxFacts bounds an infinite top-down recursion too.
func (g *pipeGoal) emit(f Fact) bool {
	g.pc.guard.noteFact()
	g.answer = f
	return false
}
