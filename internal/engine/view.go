package engine

import (
	"context"
	"sync"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// Views (DESIGN.md §5.16). Every evaluation runs under a View: one
// caller's context and budget, optionally every base relation pinned to a
// snapshot mark (relation.Prefix), with module calls routed through callCfg
// so every evaluation the caller triggers is guarded by the caller's budget
// and counted in its statistics. A session's View is read-only, and any
// number of them may evaluate concurrently over one System — the registry
// maps are locked, module caches are locked, and relation reads follow the
// single-writer contract of §5.9, with the mutual exclusion between those
// reads and writers (fact loads, module installs) supplied by the caller:
// the coral server wraps every query in the read side of an epoch guard and
// every load in the write side. The System's own calls (System.Query,
// ModuleDef.Call, MeasureCall, ExplainCall) run under its writer view,
// which differs in one thing only: it may write.

// BaseSnapshot pins every base relation of a System to its extent at
// capture time. Queries through a View holding the snapshot see exactly the
// facts that were live then, however many append-only loads commit in
// between — the cross-query consistency of a long-lived reader session.
// Relations registered after capture (including auto-defined ones) read as
// empty: they did not exist at capture.
type BaseSnapshot struct {
	sys *System // unguarded: immutable after capture

	mu       sync.Mutex
	prefixes map[ast.PredKey]*relation.Prefix // guarded_by(mu)
}

// SnapshotBases captures the current extent of every hash base relation.
// Must not run concurrently with a writer (take the epoch guard's read
// side, like a query).
func (sys *System) SnapshotBases() *BaseSnapshot {
	bs := &BaseSnapshot{sys: sys, prefixes: make(map[ast.PredKey]*relation.Prefix)}
	sys.Bases(func(key ast.PredKey, r relation.Relation) {
		if hr, ok := r.(*relation.HashRelation); ok {
			bs.prefixes[key] = hr.PrefixView()
		}
	})
	return bs
}

// prefixFor returns the captured view of a base relation, lazily pinning
// relations that appeared after capture to mark 0 (empty: they did not
// exist when the snapshot was taken).
func (bs *BaseSnapshot) prefixFor(key ast.PredKey, hr *relation.HashRelation) *relation.Prefix {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	p, ok := bs.prefixes[key]
	if !ok {
		p = hr.PrefixAt(0)
		bs.prefixes[key] = p
	}
	return p
}

// Valid reports whether every captured prefix still is the consistent
// historical state it captured — false once any destructive mutation
// (delete, truncation, clear, a rolled-back load) has hit a captured
// relation. Appends never invalidate.
func (bs *BaseSnapshot) Valid() bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for _, p := range bs.prefixes {
		if !p.Valid() {
			return false
		}
	}
	return true
}

// View is an evaluation context over a shared System: a context, a budget
// and an optional base-relation snapshot. Every evaluation runs under one —
// a server session's (System.NewView: read-only, any number concurrently)
// or the System's own writer view (System.writerView), which is the only
// one that may write. Views are cheap (no copied state); one View's fields
// are set before use and its Query method is itself safe for concurrent
// use.
type View struct {
	sys  *System
	snap *BaseSnapshot // nil: read live extents

	// Ctx, when non-nil, is polled during this view's evaluations;
	// cancellation aborts the running query with an *AbortError. The
	// server arms it per request (client disconnect aborts the query).
	Ctx context.Context
	// Budget bounds each query evaluated through the view; the zero value
	// is unlimited. Independent of the owning System's budget.
	Budget Budget

	// writer marks the System's own view: its evaluations may write what
	// is shared — indexes on base relations, save-module state,
	// assert/retract. A session's view writes nothing.
	writer bool
}

// NewView creates a read-only evaluation context, optionally pinned to a
// base-relation snapshot (nil reads live extents).
func (sys *System) NewView(snap *BaseSnapshot) *View {
	return &View{sys: sys, snap: snap}
}

// writerView is the view the System's own calls run under: live extents,
// the System's context and budget as they are when the call starts, and the
// right to write.
func (sys *System) writerView() *View {
	return &View{sys: sys, Ctx: sys.Ctx, Budget: sys.Budget, writer: true}
}

// Snapshot returns the view's base-relation snapshot, if any.
func (v *View) Snapshot() *BaseSnapshot { return v.snap }

// callCfg is the caller's side of one evaluation: the view it runs under,
// the accumulator of per-query statistics (nil: none wanted) and, for
// ExplainCall, the log that records justifications. Module calls nested in
// the evaluation inherit the view and the accumulator through callSource;
// the trace stops at the module boundary (another module's facts are a
// proof's leaves).
type callCfg struct {
	v     *View
	acc   *statsAcc
	trace *TraceLog
}

// external resolves a body predicate outside the evaluation: a base
// relation (snapshot-capped when the view holds a snapshot), another
// module's export as a call source (an inter-module call per lookup, paper
// §5.6), or an auto-defined empty base relation.
func (cfg *callCfg) external(key ast.PredKey) (Source, error) {
	sys := cfg.v.sys
	sys.mu.RLock()
	r, isBase := sys.base[key]
	def, isExport := sys.exports[key]
	sys.mu.RUnlock()
	switch {
	case isBase: // served below
	case isExport:
		return &callSource{def: def, pred: key, cfg: callCfg{v: cfg.v, acc: cfg.acc}}, nil
	default:
		// BaseRelation retakes the lock in write mode; two concurrent
		// auto-defines of the same predicate converge on one relation.
		hr, err := sys.BaseRelation(key.Name, key.Arity)
		if err != nil {
			return nil, err
		}
		r = hr
	}
	if hr, ok := r.(*relation.HashRelation); ok && cfg.v.snap != nil {
		return cfg.v.snap.prefixFor(key, hr), nil
	}
	return relSource{r}, nil
}

// callSource calls another module through the get-next-tuple interface:
// every Lookup sets up one call (one subquery) under the caller's
// configuration, whose answers stream back as the caller's join demands
// them. The calling module waits; the called module's evaluation strategy
// is invisible, and so is the caller to the callee (paper §5.6).
type callSource struct {
	def  *ModuleDef
	pred ast.PredKey
	cfg  callCfg
}

func (s *callSource) Lookup(pattern []term.Term, env *term.Env) relation.Iterator {
	it, err := s.def.callWith(&s.cfg, s.pred, pattern, env)
	if err != nil {
		// Re-throw the error value itself (not a reformatted copy) so a
		// typed *AbortError from the callee survives to the caller's
		// evaluation boundary.
		Throw(err)
	}
	return it
}

func (s *callSource) LookupRange(pattern []term.Term, env *term.Env, from, to relation.Mark) relation.Iterator {
	// A module call has no insertion history; it behaves like a computed
	// relation: full extent on the initial range, nothing afterwards.
	if from == 0 {
		return s.Lookup(pattern, env)
	}
	return relation.EmptyIterator()
}

func (s *callSource) Snapshot() relation.Mark { return 0 }

// statsAcc accumulates the statistics of the evaluations one query
// triggers. Module-call sources evaluate on the query's goroutine (parallel
// rounds exclude them), but the accumulator locks anyway so the contract
// does not silently depend on that.
type statsAcc struct {
	mu    sync.Mutex
	evals []counted // guarded_by(mu)
}

// counted is a materialized evaluation (matEval) or a pipelined call.
type counted interface{ runStats() RunStats }

// collect keeps an evaluation for total; a nil accumulator keeps nothing.
func (a *statsAcc) collect(e counted) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.evals = append(a.evals, e)
	a.mu.Unlock()
}

// total sums the accumulated counters (zero for a nil accumulator); called
// after the query finishes, so every collected evaluation is quiescent.
func (a *statsAcc) total() RunStats {
	var st RunStats
	if a == nil {
		return st
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.evals {
		st = st.add(e.runStats())
	}
	return st
}

// Query evaluates a top-level conjunctive query through the view (paper
// §2: simple queries are typed at the interface and not optimized) and
// reports what the evaluation did alongside the answers. All answers are
// materialized; the returned facts bind the query's distinct named
// variables in order of first occurrence.
func (v *View) Query(body []ast.Literal) (vars []string, facts []Fact, stats RunStats, err error) {
	defer recoverEval(&err)
	vars, facts, stats, err = evalQuery(body, &callCfg{v: v, acc: &statsAcc{}}, newGuard(v.Ctx, v.Budget))
	if err != nil {
		return nil, nil, stats, err
	}
	return vars, facts, stats, nil
}

// evalQuery is View.Query's body under an explicit guard for the query's
// own rule: one untraced, one-shot rule over cfg's sources, bound in the
// register file when the rule is in the compiled fragment. stats is the
// rule's own work plus that of the evaluations cfg.acc collected, and an
// abort that crosses this boundary without partial RunStats — the rule's
// own poll noticing the deadline before any module call's round barrier
// does — is given them.
func evalQuery(body []ast.Literal, cfg *callCfg, guard budgetGuard) (vars []string, facts []Fact, stats RunStats, err error) {
	vars, headArgs := queryAnswerVars(body)
	rule := &ast.Rule{
		Head: ast.Literal{Pred: "$query", Args: headArgs},
		Body: body,
	}
	c, err := CompileRule(rule, func(ast.PredKey) bool { return false })
	if err != nil {
		return nil, nil, RunStats{}, err
	}
	ev := &evaluator{evalConfig: evalConfig{st: newStore(cfg.external, nil), IntelligentBacktracking: true, bytecode: true}}
	if guard.active() {
		ev.guard = &guard
	}
	dedup := relation.NewHashRelation("$query", len(headArgs))
	err = ev.evalRule(c, &fullRanges, func(f Fact) bool {
		if dedup.Insert(f) {
			guard.noteFact()
			facts = append(facts, f)
		}
		return true
	})
	stats = ev.runStats().add(cfg.acc.total())
	stats.Answers = len(facts)
	noteAbortStats(err, stats)
	return vars, facts, stats, err
}

// queryAnswerVars collects the distinct named variables of a query body in
// order of first occurrence — the answer tuple of System.Query and
// View.Query.
func queryAnswerVars(body []ast.Literal) (names []string, headArgs []term.Term) {
	seen := make(map[*term.Var]bool)
	var answerVars []*term.Var
	var walk func(t term.Term)
	walk = func(t term.Term) {
		switch x := t.(type) {
		case *term.Var:
			if !seen[x] {
				seen[x] = true
				if x.Name != "" {
					answerVars = append(answerVars, x)
				}
			}
		case *term.Functor:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	for i := range body {
		for _, a := range body[i].Args {
			walk(a)
		}
	}
	headArgs = make([]term.Term, len(answerVars))
	for i, vv := range answerVars {
		headArgs[i] = vv
		names = append(names, vv.Name)
	}
	return names, headArgs
}
