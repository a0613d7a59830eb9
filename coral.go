// Package coral is a Go reproduction of the CORAL deductive database
// system (Ramakrishnan, Srivastava, Sudarshan, Seshadri — SIGMOD 1993): a
// declarative query language with modules, Horn rules with complex terms
// and non-ground facts, negation, aggregation and set-grouping, evaluated
// by a suite of cooperating strategies — Supplementary Magic Templates with
// Basic or Predicate Semi-Naive fixpoints, Ordered Search for modularly
// stratified programs, pipelined top-down evaluation, context factoring,
// existential query rewriting, save-module state retention, and lazy answer
// return — over in-memory or disk-resident relations.
//
// This package is the host-language interface the paper provides for C++
// (§6): relations, tuples, scans (C_ScanDesc), embedded command execution,
// and host-defined predicates, expressed as Go values. The declarative
// language itself is consulted as text:
//
//	sys := coral.New()
//	err := sys.Consult(`
//	    edge(a, b). edge(b, c).
//	    module paths.
//	    export path(bf, ff).
//	    path(X, Y) :- edge(X, Y).
//	    path(X, Y) :- edge(X, Z), path(Z, Y).
//	    end_module.
//	`)
//	ans, err := sys.Query("path(a, X)")
//	for _, t := range ans.Tuples { fmt.Println(t) }
package coral

import (
	"context"
	"fmt"
	"os"

	"coral/internal/ast"
	"coral/internal/engine"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/storage"
	"coral/internal/term"
)

// System is one CORAL instance: base relations, installed modules, and
// optionally an attached persistent store.
type System struct {
	eng *engine.System
	db  *storage.DB
}

// New creates an empty system.
func New() *System {
	return &System{eng: engine.NewSystem()}
}

// SetParallelism bounds the number of worker goroutines a materialized
// fixpoint round may use. The default (0) uses every available core; 1
// forces sequential evaluation. Evaluations that are inherently sequential
// — Ordered Search, tracing, aggregate selections, pipelined modules,
// module-call or computed body sources — are unaffected. Parallel and
// sequential evaluation produce identical answers in identical order.
func (s *System) SetParallelism(n int) { s.eng.Parallelism = n }

// Budget bounds one evaluation: wall-clock deadline, derived-fact count,
// and fixpoint iterations. The zero value means unlimited. See SetBudget.
type Budget = engine.Budget

// AbortError reports an evaluation stopped by a Budget or a canceled
// context: which limit tripped, and the statistics accumulated up to the
// abort. Unwrap yields context.Canceled or context.DeadlineExceeded where
// applicable, so errors.Is works as usual.
type AbortError = engine.AbortError

// SetBudget bounds every subsequent evaluation (queries, inline consult
// queries, pipelined scans). Deadlines anchor when each evaluation starts,
// not when SetBudget is called. A tripped budget surfaces as *AbortError;
// the System stays consistent and answers follow-up queries correctly.
// Pass the zero Budget to remove limits.
func (s *System) SetBudget(b Budget) { s.eng.Budget = b }

// Budget returns the currently configured evaluation budget.
func (s *System) Budget() Budget { return s.eng.Budget }

// WithContext attaches ctx to every subsequent evaluation: cancellation is
// observed at fixpoint round barriers and amortized inside join scans, and
// surfaces as *AbortError wrapping ctx.Err(). Pass nil to detach.
func (s *System) WithContext(ctx context.Context) { s.eng.Ctx = ctx }

// Consult loads a program text: base facts outside modules are inserted
// into base relations, modules are optimized and installed for their
// declared query forms, @make_index annotations are applied, and inline
// queries ("?- p(X).") are evaluated with their results returned in order.
func (s *System) Consult(src string) ([]*Answers, error) {
	u, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	for _, f := range u.Facts {
		rel, err := s.eng.BaseRelation(f.Pred, len(f.Args))
		if err != nil {
			return nil, err
		}
		rel.Insert(relation.NewFact(f.Args, nil))
	}
	for _, ix := range u.Indexes {
		if err := s.applyIndex(ix); err != nil {
			return nil, err
		}
	}
	for _, m := range u.Modules {
		if err := s.eng.AddModule(m); err != nil {
			return nil, err
		}
	}
	var results []*Answers
	for _, q := range u.Queries {
		ans, err := s.runQuery(q.String(), q)
		if err != nil {
			return results, err
		}
		results = append(results, ans)
	}
	return results, nil
}

// ConsultFile consults a program file (the interactive system's "consult",
// paper §2).
func (s *System) ConsultFile(path string) ([]*Answers, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	results, err := s.Consult(string(src))
	if err != nil {
		return results, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

func (s *System) applyIndex(ix ast.IndexAnn) error {
	rel, err := s.eng.BaseRelation(ix.Pred, len(ix.Pattern))
	if err != nil {
		return err
	}
	if pos, ok := ix.ArgPositions(); ok {
		return rel.MakeIndex(pos...)
	}
	return rel.MakePatternIndex(ix.Pattern, ix.KeyVars)
}

// Answers holds a query's results: the named variables of the query and
// one tuple of bindings per answer.
type Answers struct {
	// Query is the source text of the query.
	Query string
	// Vars names the answer columns.
	Vars []string
	// Tuples are the answers, one binding list per answer.
	Tuples []Tuple
	// Stats reports what the evaluation did: the query's own rule plus the
	// module evaluations it set up, on the System and through a Session
	// alike (a save-module call on the System resumes shared state, which
	// is not counted).
	Stats RunStats
}

// newAnswers builds the result of an evaluated query.
func newAnswers(query string, vars []string, facts []relation.Fact, stats RunStats) *Answers {
	ans := &Answers{Query: query, Vars: vars, Stats: stats}
	for _, f := range facts {
		ans.Tuples = append(ans.Tuples, Tuple(f.Args))
	}
	return ans
}

// Query parses and evaluates a conjunctive query against base relations
// and exported module predicates, materializing all answers.
func (s *System) Query(q string) (*Answers, error) {
	pq, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return s.runQuery(q, pq)
}

// runQuery evaluates a parsed query through the engine System's writer view.
func (s *System) runQuery(text string, q ast.Query) (*Answers, error) {
	vars, facts, stats, err := s.eng.Query(q.Body)
	if err != nil {
		return nil, err
	}
	return newAnswers(text, vars, facts, stats), nil
}

// Call opens a get-next-tuple scan on an exported predicate or base
// relation — the inter-module interface of paper §5.6 exposed to the host
// language. Unbound arguments are passed as Var terms (or NewVar("_")).
// Answers stream lazily: for materialized modules, at the end of each
// fixpoint iteration (paper §5.4.3); for pipelined modules, one at a time.
func (s *System) Call(pred string, args ...Term) (scan *Scan, err error) {
	defer func() {
		if r := recover(); r != nil {
			scan, err = nil, fmt.Errorf("coral: %v", r)
		}
	}()
	key := ast.PredKey{Name: pred, Arity: len(args)}
	resolved, n := term.ResolveArgs(args, nil)
	env := term.NewEnv(n)
	if def, ok := s.eng.Export(key); ok {
		it, err := def.Call(key, resolved, env)
		if err != nil {
			return nil, err
		}
		return newScan(it, resolved, env), nil
	}
	if rel, ok := s.eng.Relation(key); ok {
		return newScan(rel.Lookup(resolved, env), resolved, env), nil
	}
	return nil, fmt.Errorf("coral: unknown predicate %s", key)
}

// RegisterPredicate defines a predicate computed by a Go function — the
// paper's C++-defined predicates (§6.2). fn receives the call pattern
// (bound arguments are concrete terms, unbound ones are variables) and
// returns the matching tuples; returning a superset is allowed, the engine
// unifies. fn must be deterministic for a given pattern.
func (s *System) RegisterPredicate(name string, arity int, fn func(pattern Tuple) ([]Tuple, error)) error {
	gen := func(pattern []term.Term, env *term.Env) relation.Iterator {
		snap, _ := term.ResolveArgs(pattern, env)
		rows, err := fn(Tuple(snap))
		if err != nil {
			engine.Throw(fmt.Errorf("predicate %s: %w", name, err))
		}
		facts := make([]relation.Fact, 0, len(rows))
		for _, row := range rows {
			facts = append(facts, relation.NewFact(row, nil))
		}
		return relation.SliceIterator(facts)
	}
	return s.eng.RegisterRelation(relation.NewComputed(name, arity, gen))
}

// RewrittenProgram returns the optimizer's rewritten program text for a
// module's query form — the debugging artifact the paper stores in a file
// (§2). form is an adornment such as "bf".
func (s *System) RewrittenProgram(module, pred, form string) (string, error) {
	def, ok := s.eng.Module(module)
	if !ok {
		return "", fmt.Errorf("coral: unknown module %s", module)
	}
	prog, ok := def.Programs()[pred+"/"+form]
	if !ok {
		return "", fmt.Errorf("coral: module %s has no program for %s/%s", module, pred, form)
	}
	return prog.RewrittenText, nil
}

// Explain evaluates a single-literal query with derivation tracing and
// returns a proof tree for every answer — the reproduction's version of
// CORAL's Explanation tool. The predicate must be exported by a
// materialized module. The goal is source syntax, e.g. "path(a, X)".
func (s *System) Explain(goal string) (string, error) {
	t, err := parser.ParseTerm(goal)
	if err != nil {
		return "", err
	}
	f, ok := t.(*term.Functor)
	if !ok {
		return "", fmt.Errorf("coral: Explain expects a goal literal, got %s", goal)
	}
	key := ast.PredKey{Name: f.Sym, Arity: len(f.Args)}
	def, ok := s.eng.Export(key)
	if !ok {
		return "", fmt.Errorf("coral: no module exports %s", key)
	}
	resolved, _ := term.ResolveArgs(f.Args, nil)
	return def.ExplainCall(key, resolved)
}

// ParseUnit parses program text without loading it (the interactive
// interface uses it to classify inputs).
func (s *System) ParseUnit(src string) (*ast.Unit, error) { return parser.Parse(src) }

// IsExported reports whether a predicate is exported by an installed
// module (and therefore cannot be asserted into as a base relation).
func (s *System) IsExported(pred string, arity int) bool {
	_, ok := s.eng.Export(ast.PredKey{Name: pred, Arity: arity})
	return ok
}

// IsGroundTerm reports whether t contains no variables.
func IsGroundTerm(t Term) bool { return term.IsGround(t) }

// Engine exposes the underlying engine system for advanced embedding
// (benchmarks and tests use it; the stable surface is the System API).
func (s *System) Engine() *engine.System { return s.eng }
