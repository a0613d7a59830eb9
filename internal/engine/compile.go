// Package engine implements CORAL's query evaluation system (paper §5):
// materialized bottom-up fixpoint evaluation (Basic and Predicate
// Semi-Naive), pipelined top-down evaluation, Ordered Search with a context
// of subgoals, the save-module facility, lazy answer return, head
// aggregation and set-grouping, aggregate selections, builtins, and the
// inter-module get-next-tuple call interface.
//
// # Concurrency annotations
//
// The package's lock, snapshot and context disciplines (DESIGN.md §5.16,
// §5.17) are machine-checked by the repository lint suite (tools/lint).
// Struct fields that share a struct with a sync.Mutex/RWMutex declare
// their discipline in a comment: "guarded_by(mu)" means the named mutex
// must be held around every access (enforced by lockcheck, completeness
// by guardannot), and "unguarded: <rationale>" records why no lock is
// needed (set before publication, atomic, externally fenced). Values of
// type *relation.Prefix are read-only snapshot views; the roviol analyzer
// forbids unwrapping them into anything a mutating relation method or a
// writable store can reach. Exported evaluation entry points must carry a
// context.Context or Budget (ctxprop). Sites whose safety rests on an
// invariant the analyzers cannot see carry a
// "lint:allow <analyzer> — <reason>" line.
package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"coral/internal/analysis"
	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// ItemKind classifies one compiled body item.
type ItemKind uint8

// Body item kinds.
const (
	ItemRel     ItemKind = iota // positive relation literal
	ItemNegRel                  // negated relation literal
	ItemBuiltin                 // comparison / unification / arithmetic
)

// CItem is one compiled body item. Argument terms have their variables
// renumbered to dense environment slots.
type CItem struct {
	Kind ItemKind
	Pred ast.PredKey // relation items
	Op   string      // builtin operator
	Args []term.Term
	// Recursive marks relation items whose predicate is in the same SCC as
	// the rule head (these positions get semi-naive delta versions).
	Recursive bool
	// BoundPos lists argument positions that are statically known to be
	// bound when evaluation reaches this item (used for index creation —
	// the optimizer's index annotations, paper §5.3).
	BoundPos []int
	// BacktrackTo is the body position to resume on failure: the rightmost
	// earlier position sharing a variable with this item (or binding one of
	// its variables), for intelligent backtracking (paper §4.2). -1 means
	// fail the rule.
	BacktrackTo int
	// OrigPos is this item's position in the rule as written. The
	// semi-naive range discipline assigns scan ranges by occurrence — the
	// delta literal is a particular written occurrence, not a schedule
	// slot — so ruleRanges.DeltaPos is compared against OrigPos, which
	// keeps the discipline intact when the join planner permutes the body
	// (plan.go). In an unplanned rule OrigPos equals the body index.
	OrigPos int
	// ArgsGround marks items whose arguments are all compile-time ground:
	// a candidate ground fact then matches iff the argument lists are
	// equal, which hash-consing decides without touching environments.
	ArgsGround bool
	// Slot is the index of a Recursive item's predicate in its stratum's
	// predicate table (Stratum.Table): semi-naive marks live in slices indexed
	// by it (ruleRanges, roundSched) rather than in maps keyed by predicate.
	Slot int
}

// CAgg is a compiled head aggregation.
type CAgg struct {
	Pos int
	Op  string
	Arg term.Term
}

// Compiled is the internal form of one rule (the paper's semi-naive rule
// structures, §5.1): argument lists per body literal, evaluation order
// information, precomputed backtrack points.
type Compiled struct {
	HeadPred ast.PredKey
	HeadArgs []term.Term
	Body     []CItem
	Aggs     []CAgg
	NVars    int
	Line     int
	// RecPositions lists body indexes of recursive relation items, i.e.
	// the positions that take the delta role in semi-naive versions.
	RecPositions []int
	// SeedPos is the body index of the magic-seed literal — the carrier of
	// the query form's inferred call bindings — or -1. Full-extent plan
	// versions seed their join schedule from it (plan.go).
	SeedPos int
	// HeadSlot is HeadPred's index in the stratum's predicate table.
	HeadSlot int
	// bc is the rule's register-bytecode program, compiled by the first
	// evaluator that runs the rule on the machine (program) and shared by
	// every later one: once per written rule or memoised plan, however many
	// calls, sessions and pool workers run it.
	bcOnce sync.Once
	bc     *bcProg
}

// program returns the rule's bytecode program, or nil when the rule is
// outside the compiled fragment and stays interpreted.
func (c *Compiled) program() *bcProg {
	c.bcOnce.Do(func() { c.bc, _ = compileBC(c) })
	return c.bc
}

// String renders the compiled rule for debugging and the rewritten-program
// dump.
func (c *Compiled) String() string {
	r := &ast.Rule{Head: ast.Literal{Pred: c.HeadPred.Name, Args: c.HeadArgs}}
	for _, it := range c.Body {
		switch it.Kind {
		case ItemBuiltin:
			r.Body = append(r.Body, ast.Literal{Pred: it.Op, Args: it.Args})
		default:
			r.Body = append(r.Body, ast.Literal{Pred: it.Pred.Name, Args: it.Args, Neg: it.Kind == ItemNegRel})
		}
	}
	for _, ag := range c.Aggs {
		r.Aggs = append(r.Aggs, ast.HeadAgg{Pos: ag.Pos, Op: ag.Op, Arg: ag.Arg})
	}
	return r.String()
}

// compiler renumbers variables within one rule.
type compiler struct {
	index map[*term.Var]int
	next  int
}

func (c *compiler) varSlot(v *term.Var) int {
	if i, ok := c.index[v]; ok {
		return i
	}
	i := c.next
	c.next++
	c.index[v] = i
	return i
}

// rebuild returns t with variables replaced by slot-numbered copies. Ground
// subterms are shared.
func (c *compiler) rebuild(t term.Term) term.Term {
	switch x := t.(type) {
	case *term.Var:
		return &term.Var{Name: x.Name, Index: c.varSlot(x)}
	case *term.Functor:
		if term.IsGround(x) {
			return x
		}
		args := make([]term.Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.rebuild(a)
		}
		return term.NewFunctor(x.Sym, args...)
	default:
		return t
	}
}

func (c *compiler) rebuildArgs(args []term.Term) []term.Term {
	out := make([]term.Term, len(args))
	for i, a := range args {
		out[i] = c.rebuild(a)
	}
	return out
}

// CompileRule lowers an ast rule. recursive reports whether a body
// predicate is mutually recursive with the head.
func CompileRule(r *ast.Rule, recursive func(ast.PredKey) bool) (*Compiled, error) {
	c := &compiler{index: make(map[*term.Var]int)}
	out := &Compiled{
		HeadPred: r.Head.Key(),
		HeadArgs: c.rebuildArgs(r.Head.Args),
		Line:     r.Line,
		SeedPos:  -1,
	}
	boundVars := make(map[int]bool) // env slots bound before the current item
	markBound := func(args []term.Term) {
		for _, a := range args {
			addSlots(a, boundVars)
		}
	}
	for i := range r.Body {
		l := &r.Body[i]
		item := CItem{Args: c.rebuildArgs(l.Args), OrigPos: i}
		switch {
		case l.Builtin():
			item.Kind = ItemBuiltin
			item.Op = l.Pred
			if l.Pred == "=" {
				// After unification both sides are bound.
				markBound(item.Args)
			}
		case l.Neg:
			item.Kind = ItemNegRel
			item.Pred = l.Key()
		default:
			item.Kind = ItemRel
			item.Pred = l.Key()
		}
		if item.Kind == ItemRel || item.Kind == ItemNegRel {
			item.Recursive = recursive(item.Pred)
			for pos, a := range item.Args {
				if coveredBy(a, boundVars) {
					item.BoundPos = append(item.BoundPos, pos)
				}
			}
			item.ArgsGround = true
			for _, a := range item.Args {
				if !term.IsGround(a) {
					item.ArgsGround = false
					break
				}
				// Prime the hash-cons memo so the run-time equality check
				// is an identifier comparison.
				term.GroundID(a)
			}
		}
		out.Body = append(out.Body, item)
		if item.Kind == ItemRel {
			markBound(item.Args)
		}
	}
	computeBacktrackPoints(out)
	for _, ag := range r.Aggs {
		out.Aggs = append(out.Aggs, CAgg{Pos: ag.Pos, Op: ag.Op, Arg: c.rebuild(ag.Arg)})
	}
	for i, it := range out.Body {
		if it.Kind == ItemRel && it.Recursive {
			out.RecPositions = append(out.RecPositions, i)
		}
	}
	out.NVars = c.next
	if err := checkSafety(out); err != nil {
		return nil, fmt.Errorf("line %d: %w", r.Line, err)
	}
	return out, nil
}

// addSlots records the env slots of t's variables.
func addSlots(t term.Term, into map[int]bool) {
	switch x := t.(type) {
	case *term.Var:
		into[x.Index] = true
	case *term.Functor:
		for _, a := range x.Args {
			addSlots(a, into)
		}
	}
}

// coveredBy reports whether every variable slot of t is in the set.
func coveredBy(t term.Term, set map[int]bool) bool {
	switch x := t.(type) {
	case *term.Var:
		return set[x.Index]
	case *term.Functor:
		for _, a := range x.Args {
			if !coveredBy(a, set) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// computeBacktrackPoints fills BacktrackTo: on failure at position i, resume
// the rightmost earlier relation item that shares a variable with item i
// (advancing anything in between cannot change item i's bindings).
func computeBacktrackPoints(c *Compiled) {
	slotsAt := make([]map[int]bool, len(c.Body))
	for i := range c.Body {
		s := make(map[int]bool)
		for _, a := range c.Body[i].Args {
			addSlots(a, s)
		}
		slotsAt[i] = s
	}
	for i := range c.Body {
		c.Body[i].BacktrackTo = i - 1 // default: chronological
		if c.Body[i].Kind != ItemRel {
			continue
		}
		bt := -1
		for j := i - 1; j >= 0; j-- {
			if c.Body[j].Kind != ItemRel {
				// Builtins and negation bind (or check) variables too;
				// treat them as sharing if slots intersect.
			}
			if intersects(slotsAt[i], slotsAt[j]) {
				bt = j
				break
			}
		}
		c.Body[i].BacktrackTo = bt
	}
}

func intersects(a, b map[int]bool) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// checkSafety verifies range restriction in the weak form the engine
// requires: every negated item's variables must appear in a positive item
// or the head (full groundness is checked at run time).
func checkSafety(c *Compiled) error {
	positive := make(map[int]bool)
	for _, a := range c.HeadArgs {
		addSlots(a, positive)
	}
	for _, it := range c.Body {
		if it.Kind == ItemRel || it.Kind == ItemBuiltin {
			for _, a := range it.Args {
				addSlots(a, positive)
			}
		}
	}
	for _, it := range c.Body {
		if it.Kind != ItemNegRel {
			continue
		}
		for _, a := range it.Args {
			if !coveredBy(a, positive) {
				return fmt.Errorf("engine: unsafe negation on %s: variable occurs only under \"not\"", it.Pred)
			}
		}
	}
	return nil
}

// VetModule is the pre-compile gate: it runs the static analysis over a
// module and returns an error carrying the diagnostics when any finding
// is Error severity. Predicates the module does not define are assumed
// to be base relations (they may be loaded later), so only genuinely
// module-local problems — unsafe rules, builtin binding violations,
// unstratified negation or aggregation — reject the module.
func VetModule(m *ast.Module) error {
	diags := analysis.AnalyzeModule(m, analysis.Options{})
	errs := analysis.Errors(diags)
	if len(errs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "engine: module %s rejected by static analysis:\n", m.Name)
	for _, d := range errs {
		b.WriteString("  ")
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return errors.New(strings.TrimRight(b.String(), "\n"))
}

// Fact re-exports the relation fact type for engine callers.
type Fact = relation.Fact
