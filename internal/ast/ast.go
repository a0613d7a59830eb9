// Package ast defines the syntax tree of the CORAL declarative language
// subset implemented here: units (consulted files) containing program
// modules, base facts, and queries; modules containing exports with query
// forms, rules, and annotations (paper §2, §4, §5).
package ast

import (
	"strings"

	"coral/internal/term"
)

// Unit is the result of consulting one source text: modules, base facts
// declared outside any module, top-level annotations (which apply to base
// relations), and queries.
type Unit struct {
	Modules []*Module
	Facts   []Literal
	Indexes []IndexAnn
	Queries []Query
}

// Module is a declarative program module — the unit of compilation and of
// evaluation-strategy choice (paper §5).
type Module struct {
	Name    string
	Exports []Export
	Rules   []*Rule
	Ann     Annotations
	// Line and Col locate the "module" keyword in the consulted source.
	Line int
	Col  int
}

// Export declares a predicate visible outside the module together with its
// permitted query forms (adornments such as "bf": first argument bound,
// second free — paper §2, §4.1).
type Export struct {
	Pred  string
	Arity int
	Forms []string
	// Line and Col locate the "export" keyword in the consulted source.
	Line int
	Col  int
}

// Annotations collects module-level control choices (paper §4, §5.4, §5.5).
// The zero value means: materialized, Basic Semi-Naive, Supplementary Magic
// rewriting, subsumption checks on, lazy answer return.
type Annotations struct {
	// Pipelining selects top-down pipelined evaluation (§5.2) instead of
	// materialization.
	Pipelining bool
	// OrderedSearch selects Ordered Search fixpoint evaluation (§5.4.1).
	OrderedSearch bool
	// SaveModule retains module state between calls (§5.4.2).
	SaveModule bool
	// Eager computes the full fixpoint before returning any answer; the
	// default returns answers at the end of each iteration (§5.4.3, §5.6).
	Eager bool
	// FixpointStrategy is "bsn" (default), "psn", or "naive".
	FixpointStrategy string
	// Rewriting is "supmagic" (default), "magic", "factoring", or "none".
	Rewriting string
	// NoExistential disables existential query rewriting, which is
	// otherwise applied in conjunction with selection pushing (§4.1).
	NoExistential bool
	// NoIndexing disables automatic index creation by the optimizer.
	NoIndexing bool
	// Reorder enables the optimizer's join order selection (§4.2); the
	// default follows the rule's source order (§5.6).
	Reorder bool
	// ChronologicalBacktracking disables intelligent backtracking (§4.2);
	// failures then always retry the immediately preceding literal.
	ChronologicalBacktracking bool
	// Multiset lists predicates to treat as multisets (duplicate checks
	// only on magic predicates, §4.2).
	Multiset []string
	// AggSels are @aggregate_selection annotations (§5.5.2).
	AggSels []AggSelAnn
	// Indexes are @make_index annotations (§5.5.1).
	Indexes []IndexAnn
}

// AggSelAnn is one @aggregate_selection annotation:
//
//	@aggregate_selection p(X,Y,P,C) (X,Y) min(C).
type AggSelAnn struct {
	Pred      string
	HeadVars  []string // variable names of the annotation's literal, by position
	GroupVars []string
	Op        string // "min", "max" or "any"
	ValueVar  string
}

// IndexAnn is one @make_index annotation:
//
//	@make_index emp(Name, addr(Street, City)) (Name, City).
//
// When Pattern's arguments are distinct top-level variables this is an
// argument-form index on KeyVars' positions; otherwise a pattern-form index.
type IndexAnn struct {
	Pred    string
	Pattern []term.Term
	KeyVars []string
}

// ArgPositions reports whether the annotation is the argument form and
// returns its key positions.
func (ix IndexAnn) ArgPositions() ([]int, bool) {
	posByName := map[string]int{}
	for i, t := range ix.Pattern {
		v, ok := t.(*term.Var)
		if !ok {
			return nil, false
		}
		if _, dup := posByName[v.Name]; dup {
			return nil, false
		}
		posByName[v.Name] = i
	}
	var pos []int
	for _, k := range ix.KeyVars {
		i, ok := posByName[k]
		if !ok {
			return nil, false
		}
		pos = append(pos, i)
	}
	return pos, true
}

// Rule is one Horn rule. Facts are rules with an empty body. Head
// aggregation (set-grouping and aggregate operations, e.g.
// s_p_length(X,Y,min(C))) is normalized by the parser: the aggregated
// argument is replaced by a fresh variable and recorded in Aggs.
type Rule struct {
	Head Literal
	Body []Literal
	Aggs []HeadAgg
	// Line and Col locate the rule's first token in the consulted source
	// (diagnostics point at it; the rewriters preserve it).
	Line int
	Col  int
}

// HeadAgg records one aggregated head argument after normalization.
type HeadAgg struct {
	Pos int    // head argument position
	Op  string // "min","max","sum","count","avg","any","set"
	Arg term.Term
}

// IsFact reports whether the rule has an empty body and no aggregation.
func (r *Rule) IsFact() bool { return len(r.Body) == 0 && len(r.Aggs) == 0 }

// Literal is one atomic formula: a predicate applied to argument terms,
// possibly negated. Builtin comparisons use operator predicates ("=", "<",
// ">", ">=", "=<", "!=", "==").
type Literal struct {
	Pred string
	Args []term.Term
	Neg  bool
	// Line and Col locate the literal's first token ("not" for negated
	// literals, the left operand for builtins) in the consulted source.
	// Zero for literals synthesized by the rewriters.
	Line int
	Col  int
}

// Builtin reports whether the literal is an arithmetic/comparison builtin
// rather than a relation reference.
func (l *Literal) Builtin() bool {
	switch l.Pred {
	case "=", "!=", "==", "<", ">", ">=", "=<", "is":
		return true
	}
	return false
}

// Arity returns the number of arguments.
func (l *Literal) Arity() int { return len(l.Args) }

// Query is one top-level query: a conjunction of literals. Answers bind the
// distinct variables of the conjunction.
type Query struct {
	Body []Literal
}

// --- Printing (the optimizer writes rewritten programs as text, §2) ---

// String renders the literal in source syntax.
func (l Literal) String() string {
	var b strings.Builder
	l.write(&b)
	return b.String()
}

func (l Literal) write(b *strings.Builder) {
	if l.Neg {
		b.WriteString("not ")
	}
	if l.Builtin() && len(l.Args) == 2 {
		b.WriteString(l.Args[0].String())
		b.WriteByte(' ')
		b.WriteString(l.Pred)
		b.WriteByte(' ')
		b.WriteString(l.Args[1].String())
		return
	}
	// Quote predicate names the parser would not read back bare (operator
	// symbols and other non-identifiers reach here via the expression
	// grammar, e.g. the literal */2 from "a :- 0*0").
	b.WriteString(term.QuoteAtom(l.Pred))
	if len(l.Args) == 0 {
		return
	}
	b.WriteByte('(')
	for i, a := range l.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
}

// String renders the rule in source syntax, reinstating head aggregation.
func (r *Rule) String() string {
	var b strings.Builder
	head := r.Head
	if len(r.Aggs) > 0 {
		args := make([]term.Term, len(head.Args))
		copy(args, head.Args)
		for _, ag := range r.Aggs {
			if ag.Op == "set" {
				args[ag.Pos] = term.NewFunctor("<>", ag.Arg)
			} else {
				args[ag.Pos] = term.NewFunctor(ag.Op, ag.Arg)
			}
		}
		head = Literal{Pred: head.Pred, Args: args}
	}
	head.write(&b)
	if len(r.Body) > 0 {
		b.WriteString(" :- ")
		for i := range r.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			r.Body[i].write(&b)
		}
	}
	b.WriteByte('.')
	return b.String()
}

// String renders the whole module in source syntax.
func (m *Module) String() string {
	var b strings.Builder
	b.WriteString("module ")
	b.WriteString(m.Name)
	b.WriteString(".\n")
	for _, e := range m.Exports {
		b.WriteString("export ")
		b.WriteString(e.Pred)
		b.WriteByte('(')
		b.WriteString(strings.Join(e.Forms, ", "))
		b.WriteString(").\n")
	}
	writeAnnotations(&b, &m.Ann)
	for _, r := range m.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	b.WriteString("end_module.\n")
	return b.String()
}

func writeAnnotations(b *strings.Builder, a *Annotations) {
	if a.Pipelining {
		b.WriteString("@pipelining.\n")
	}
	if a.OrderedSearch {
		b.WriteString("@ordered_search.\n")
	}
	if a.SaveModule {
		b.WriteString("@save_module.\n")
	}
	if a.Eager {
		b.WriteString("@eager.\n")
	}
	if a.FixpointStrategy != "" && a.FixpointStrategy != "bsn" {
		b.WriteString("@" + a.FixpointStrategy + ".\n")
	}
	if a.Rewriting != "" && a.Rewriting != "supmagic" {
		b.WriteString("@rewrite " + a.Rewriting + ".\n")
	}
	if a.NoExistential {
		b.WriteString("@no_existential.\n")
	}
	if a.NoIndexing {
		b.WriteString("@no_indexing.\n")
	}
	if a.Reorder {
		b.WriteString("@reorder.\n")
	}
	if a.ChronologicalBacktracking {
		b.WriteString("@chronological_backtracking.\n")
	}
	for _, p := range a.Multiset {
		b.WriteString("@multiset " + p + ".\n")
	}
	for _, s := range a.AggSels {
		b.WriteString("@aggregate_selection " + s.Pred + "(" + strings.Join(s.HeadVars, ", ") + ") (" +
			strings.Join(s.GroupVars, ", ") + ") " + s.Op + "(" + s.ValueVar + ").\n")
	}
	for _, ix := range a.Indexes {
		b.WriteString("@make_index " + ix.Pred + "(")
		for i, p := range ix.Pattern {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
		b.WriteString(") (" + strings.Join(ix.KeyVars, ", ") + ").\n")
	}
}

// String renders the query in source syntax.
func (q Query) String() string {
	var b strings.Builder
	b.WriteString("?- ")
	for i := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		q.Body[i].write(&b)
	}
	b.WriteByte('.')
	return b.String()
}

// PredKey identifies a predicate by name and arity.
type PredKey struct {
	Name  string
	Arity int
}

// Key returns the literal's predicate key.
func (l *Literal) Key() PredKey { return PredKey{Name: l.Pred, Arity: len(l.Args)} }

// String renders the key as name/arity.
func (k PredKey) String() string {
	return k.Name + "/" + itoa(k.Arity)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
