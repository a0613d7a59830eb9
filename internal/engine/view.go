package engine

import (
	"context"
	"sync"
	"time"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// Concurrent read-only evaluation (DESIGN.md §5.16). A View is one
// session's window onto a shared System: it carries the session's own
// context and budget, optionally pins every base relation to a snapshot
// mark (relation.Prefix), and routes module calls through callCfg so every
// evaluation it triggers is read-only and privately guarded. Any number of
// Views may evaluate concurrently over one System — the registry maps are
// locked, module caches are locked, and relation reads follow the
// single-writer contract of §5.9, with the mutual exclusion between those
// reads and writers (fact loads, module installs) supplied by the caller:
// the coral server wraps every query in the read side of an epoch guard and
// every load in the write side.

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

// View is a read-only evaluation context over a shared System: the
// connection-scoped analog of the System's own Ctx/Budget fields, plus an
// optional base-relation snapshot. Views are cheap (no copied state) and
// any number may query concurrently; one View's fields are set before use
// and its Query method is itself safe for concurrent use.
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
}

// NewView creates a read-only evaluation context, optionally pinned to a
// base-relation snapshot (nil reads live extents).
func (sys *System) NewView(snap *BaseSnapshot) *View {
	return &View{sys: sys, snap: snap}
}

// Snapshot returns the view's base-relation snapshot, if any.
func (v *View) Snapshot() *BaseSnapshot { return v.snap }

// newGuard captures the view's context and budget for one call — the
// connection-scoped mirror of System.newGuard.
func (v *View) newGuard() budgetGuard {
	b := v.Budget
	g := budgetGuard{ctx: v.Ctx, maxFacts: int64(b.MaxFacts), maxIters: b.MaxIterations}
	if b.Timeout > 0 {
		g.hasDeadline = true
		g.deadline = time.Now().Add(b.Timeout)
	}
	g.on = g.ctx != nil || b.limited()
	return g
}

// externalWith is the view's source resolver: base relations come back
// snapshot-capped (when the view holds a snapshot), module exports come
// back as view-routed call sources so nested calls inherit the view's
// guard, read-only discipline, and statistics accumulator.
func (v *View) externalWith(acc *statsAcc) func(ast.PredKey) (Source, error) {
	var resolve func(ast.PredKey) (Source, error)
	resolve = func(key ast.PredKey) (Source, error) {
		src, err := v.sys.external(key)
		if err != nil {
			return nil, err
		}
		switch s := src.(type) {
		case relSource:
			if hr, ok := s.r.(*relation.HashRelation); ok && v.snap != nil {
				return v.snap.prefixFor(key, hr), nil
			}
			return s, nil
		case *moduleCallSource:
			return &viewCallSource{def: s.def, pred: key, v: v, acc: acc, resolve: resolve}, nil
		}
		return src, nil
	}
	return resolve
}

// viewCallSource is moduleCallSource routed through a view: every Lookup
// sets up one inter-module call evaluated under the view's configuration.
type viewCallSource struct {
	def     *ModuleDef
	pred    ast.PredKey
	v       *View
	acc     *statsAcc
	resolve func(ast.PredKey) (Source, error)
}

func (s *viewCallSource) Lookup(pattern []term.Term, env *term.Env) relation.Iterator {
	cfg := callCfg{
		external: s.resolve,
		guard:    s.v.newGuard,
		sharedRO: true,
		onEval:   s.acc.collect,
	}
	it, err := s.def.callWith(cfg, s.pred, pattern, env)
	if err != nil {
		// Re-throw the error value itself (not a reformatted copy) so a
		// typed *AbortError from the callee survives to the caller's
		// evaluation boundary.
		Throw(err)
	}
	return it
}

func (s *viewCallSource) LookupRange(pattern []term.Term, env *term.Env, from, to relation.Mark) relation.Iterator {
	// A module call has no insertion history; it behaves like a computed
	// relation: full extent on the initial range, nothing afterwards.
	if from == 0 {
		return s.Lookup(pattern, env)
	}
	return relation.EmptyIterator()
}

func (s *viewCallSource) Snapshot() relation.Mark { return 0 }

// statsAcc accumulates the statistics of the evaluations one query
// triggers. Module-call sources evaluate on the query's goroutine (parallel
// rounds exclude them), but the accumulator locks anyway so the contract
// does not silently depend on that.
type statsAcc struct {
	mu    sync.Mutex
	evals []*matEval // guarded_by(mu)
}

func (a *statsAcc) collect(me *matEval) {
	a.mu.Lock()
	a.evals = append(a.evals, me)
	a.mu.Unlock()
}

// total sums the accumulated counters; called after the query finishes, so
// every collected evaluation is quiescent.
func (a *statsAcc) total() RunStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var st RunStats
	for _, me := range a.evals {
		st = st.add(me.counters())
	}
	return st
}

// Query evaluates a top-level conjunctive query through the view — the
// concurrent, read-only mirror of System.Query — and reports what the
// evaluation did alongside the answers. Answers are byte-identical to the
// single-caller path: same compilation, same evaluator, same dedup.
func (v *View) Query(body []ast.Literal) (vars []string, facts []Fact, stats RunStats, err error) {
	defer recoverEval(&err)
	acc := &statsAcc{}
	vars, facts, stats, err = evalQuery(body, v.externalWith(acc), v.newGuard(), acc)
	if err != nil {
		return nil, nil, stats, err
	}
	return vars, facts, stats, nil
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
